type entity = int
type site = int

type t = {
  entity_names : string array;
  sites : int array; (* entity id -> site id *)
  site_names : string array;
  slots : int array; (* [table entity_names] *)
}

(* FNV-1a over [s.[pos .. pos + len - 1]], kept to 62 bits. *)
let[@inline] hash s pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := ((!h lxor Char.code (String.unsafe_get s i)) * 0x01000193) land max_int
  done;
  !h

(* Whether [name] is spelt [s.[pos .. pos + len - 1]], a range of [s]. *)
let[@inline] spelt name s pos len =
  String.length name = len
  &&
  let k = ref 0 in
  while !k < len && String.unsafe_get name !k = String.unsafe_get s (pos + !k) do
    incr k
  done;
  !k = len

(* The index of the name in [names] spelt [s.[pos .. pos + len - 1]],
   or -1, found in [slots]: open addressing on [hash], each slot an
   index + 1 or 0 when free, a power of two at least twice as many
   slots as names. *)
let lookup slots names s pos len =
  let mask = Array.length slots - 1 in
  let i = ref (hash s pos len land mask) in
  while slots.(!i) > 0 && not (spelt names.(slots.(!i) - 1) s pos len) do
    i := (!i + 1) land mask
  done;
  slots.(!i) - 1

(* The slots of [names]; [dup name] raises for a repeated name. *)
let table names dup =
  let size = ref 2 in
  while !size < 2 * Array.length names do
    size := 2 * !size
  done;
  let slots = Array.make !size 0 in
  Array.iteri
    (fun i name ->
      let len = String.length name in
      if lookup slots names name 0 len >= 0 then dup name;
      let j = ref (hash name 0 len land (!size - 1)) in
      while slots.(!j) <> 0 do
        j := (!j + 1) land (!size - 1)
      done;
      slots.(!j) <- i + 1)
    names;
  slots

let find_entity_sub t s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Db.find_entity_sub: range out of bounds";
  lookup t.slots t.entity_names s pos len

let create site_specs =
  let site_names = Array.of_list (List.map fst site_specs) in
  ignore
    (table site_names (fun s ->
         invalid_arg (Printf.sprintf "Db.create: duplicate site %S" s)));
  let ne =
    List.fold_left (fun n (_, ents) -> n + List.length ents) 0 site_specs
  in
  let entity_names = Array.make ne "" and sites = Array.make ne 0 in
  let k = ref 0 in
  List.iteri
    (fun si (_, ents) ->
      List.iter
        (fun e ->
          entity_names.(!k) <- e;
          sites.(!k) <- si;
          incr k)
        ents)
    site_specs;
  let slots =
    table entity_names (fun e ->
        invalid_arg (Printf.sprintf "Db.create: duplicate entity %S" e))
  in
  { entity_names; sites; site_names; slots }

let single_site entities = create [ ("main", entities) ]

let one_site_per_entity entities =
  create (List.map (fun e -> ("site_" ^ e, [ e ])) entities)

let entity_count t = Array.length t.entity_names
let site_count t = Array.length t.site_names
let site_of t e = t.sites.(e)
let entity_name t e = t.entity_names.(e)
let site_name t s = t.site_names.(s)

let entities_of_site t s =
  List.filter
    (fun e -> t.sites.(e) = s)
    (List.init (entity_count t) Fun.id)

let find_entity t name =
  let e = find_entity_sub t name ~pos:0 ~len:(String.length name) in
  if e < 0 then None else Some e

let find_entity_exn t name =
  match find_entity t name with Some e -> e | None -> raise Not_found

let[@inline] same_site t x y = t.sites.(x) = t.sites.(y)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun si sname ->
      Format.fprintf ppf "site %s {%a }@," sname
        (fun ppf ents ->
          List.iter (fun e -> Format.fprintf ppf " %s" t.entity_names.(e)) ents)
        (entities_of_site t si))
    t.site_names;
  Format.fprintf ppf "@]"
