(** Distributed database schemas.

    A schema is a finite set of named entities partitioned into named
    sites (paper, §2).  Entities and sites are referred to by dense
    integer ids elsewhere in the library. *)

type entity = int
type site = int
type t

(** [create sites] builds a schema from [(site_name, entity_names)]
    pairs.  Raises [Invalid_argument] on duplicate site or entity
    names. *)
val create : (string * string list) list -> t

(** [single_site entities] is a one-site ("centralized") schema. *)
val single_site : string list -> t

(** [one_site_per_entity entities] places every entity on its own site —
    the fully distributed schema used by the §4 coNP-hardness
    construction. *)
val one_site_per_entity : string list -> t

val entity_count : t -> int
val site_count : t -> int
val site_of : t -> entity -> site
val entity_name : t -> entity -> string
val site_name : t -> site -> string

(** Entities of a site, ascending. *)
val entities_of_site : t -> site -> entity list

(** [find_entity t name] is the id of the entity called [name]. *)
val find_entity : t -> string -> entity option

(** [find_entity_sub t s ~pos ~len] is the id of the entity whose name
    is [s.[pos .. pos + len - 1]], or -1 if there is none, looked up in
    place in a table {!create} builds once: no string is cut out of
    [s].  Raises [Invalid_argument] if the range is not within [s]. *)
val find_entity_sub : t -> string -> pos:int -> len:int -> entity

(** [find_entity_exn t name] raises [Not_found] when absent. *)
val find_entity_exn : t -> string -> entity

(** [same_site t x y] iff entities [x] and [y] reside at the same site. *)
val same_site : t -> entity -> entity -> bool

val pp : Format.formatter -> t -> unit
