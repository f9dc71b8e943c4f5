open Ddlock_graph
open Ddlock_model

exception Too_large of int

(* Telemetry.  Every counter is bumped at state-insertion (or work-item
   expansion) time, so a full exploration without partial-order
   reduction counts exactly the reachable set in
   [explore.states_visited].  All recording is a no-op unless
   Ddlock_obs.Control is switched on. *)
module Obs = struct
  module T = Ddlock_obs.Trace

  let states_visited = Ddlock_obs.Metrics.Counter.make "explore.states_visited"

  let deadlock_witnesses =
    Ddlock_obs.Metrics.Counter.make "explore.deadlock_witnesses"

  let searches = Ddlock_obs.Metrics.Counter.make "explore.searches"
  let visit () = Ddlock_obs.Metrics.Counter.incr states_visited

  (* Symmetry-reduction telemetry.  [canon_hits] counts inserted states
     whose generating successor differed from its orbit representative.
     [orbit_gauge] records the largest automorphism group order seen by a
     symmetric search. *)
  let canon_hits = Ddlock_obs.Metrics.Counter.make "canon.hits"
  let orbit_gauge = Ddlock_obs.Metrics.Gauge.make "canon.orbit_size"
  let hit moved = if moved then Ddlock_obs.Metrics.Counter.incr canon_hits

  (* Partial-order-reduction telemetry, bumped once per expanded state.
     [por_pruned] sums the enabled transitions not expanded;
     [por_persistent_size] sums the persistent-set sizes. *)
  let por_pruned = Ddlock_obs.Metrics.Counter.make "por.pruned"

  let por_persistent_size =
    Ddlock_obs.Metrics.Counter.make "por.persistent_size"

  let por_expand ~enabled ~persistent =
    Ddlock_obs.Metrics.Counter.add por_pruned (enabled - persistent);
    Ddlock_obs.Metrics.Counter.add por_persistent_size persistent

  (* The successors the may-deadlock filter drops. *)
  let pruned = Ddlock_obs.Metrics.Counter.make "explore.pruned"
  let prune () = Ddlock_obs.Metrics.Counter.incr pruned
end

(* The orbit quotient's canonicalizer: [None] when the automorphism
   group is trivial (canonicalization would be the identity). *)
let active_canon sys =
  let c = Canon.detect sys in
  if Canon.nontrivial c then begin
    Ddlock_obs.Metrics.Gauge.set_max Obs.orbit_gauge (Canon.orbit_size c);
    Some c
  end
  else None

let default_cap = 2_000_000

(* ---------------------------- workspaces ---------------------------

   Everything a search writes by state id: the arena of rows, the BFS
   tree — the parent (-1 at the root) and the global bit of the step
   reaching the node — and the enabled sets of the states not yet
   expanded ({!Packed.enabled_words} ints each), plus the successor
   buffer [scratch] and the expansion buffer [en].  Ids are dense and
   assigned in insertion order.

   The enabled sets are kept [per] ids to a chunk: id [id]'s set is at
   [(id land (per - 1)) * ew] of chunk [id lsr shift] of [sets].  Once
   every id of a chunk is expanded the chunk goes to [spare], and the
   next chunk needed is taken from there, so a search holds the sets
   of about the ids from the one being expanded up to the count. *)

type work = {
  arena : Arena.t;
  mutable parent : int array;
  mutable via : int array;
  mutable sets : int array array;
  mutable spare : int array list;
  mutable scratch : Packed.t;
  mutable en : int array;
}

let shift = 8
let per = 1 lsl shift

let fresh_work lay =
  {
    arena = Arena.create ~words:(Packed.words lay);
    parent = [||];
    via = [||];
    sets = [||];
    spare = [];
    scratch = Packed.initial lay;
    en = Array.make (Packed.nodes lay) 0;
  }

(* Chunk [c] of [size] ints: the one held, a spare, or a new one.
   Spares of another size, left by a search on another layout, go. *)
let chunk w c size =
  if c >= Array.length w.sets then
    w.sets <- Array.append w.sets (Array.make (c + 1) [||]);
  if Array.length w.sets.(c) <> size then begin
    w.spare <- List.filter (fun k -> Array.length k = size) w.spare;
    match w.spare with
    | k :: rest ->
        w.spare <- rest;
        w.sets.(c) <- k
    | [] -> w.sets.(c) <- Array.make size 0
  end;
  w.sets.(c)

(* Makes a used workspace ready for a search on [lay], in O(rows it
   held): a fresh one needs nothing. *)
let prepare w lay =
  let words = Packed.words lay in
  Arena.reset w.arena ~words;
  if Array.length w.scratch = words then Array.fill w.scratch 0 words 0
  else w.scratch <- Packed.initial lay;
  if Array.length w.en < Packed.nodes lay then
    w.en <- Array.make (Packed.nodes lay) 0

(* One workspace per domain, lent to one search at a time: a search
   takes it by swapping in [None] and gives it back when it ends,
   however it ends.  A search that finds it taken — one nested in a
   cancellation poll, or on another systhread of the domain — uses a
   fresh one.  A workspace that grew past [kept_rows] states is dropped,
   which bounds what an idle domain retains. *)
let lent = Domain.DLS.new_key (fun () -> Atomic.make None)
let kept_rows = 65_536

let borrow lay f =
  let cell = Domain.DLS.get lent in
  let w =
    match Atomic.exchange cell None with
    | Some w ->
        prepare w lay;
        w
    | None -> fresh_work lay
  in
  Fun.protect
    ~finally:(fun () ->
      if Array.length w.parent <= kept_rows then Atomic.set cell (Some w))
    (fun () -> f w)

let grow a cap n =
  let b = Array.make (max n (2 * cap)) (-1) in
  Array.blit a 0 b 0 cap;
  b

(* Record the fresh node [id] as a child of [parent]. *)
let record w id ~parent ~via =
  let cap = Array.length w.parent in
  if id >= cap then begin
    w.parent <- grow w.parent cap 64;
    w.via <- grow w.via cap 64
  end;
  w.parent.(id) <- parent;
  w.via.(id) <- via;
  Obs.visit ()

let path w lay id =
  let rec go id acc =
    let p = w.parent.(id) in
    if p < 0 then acc else go p (Packed.step lay w.via.(id) :: acc)
  in
  go id []

(* Exact cap: a search may hold at most [max_states] states; discovering
   one more raises [Too_large] with the number already held, before the
   row is copied in, so the table never exceeds the budget (the initial
   state included) nor grows just to give up.  A row already held (an
   orbit already stored, under symmetry) never counts against it.  The
   cancellation poll rides the same path: an installed deadline bounds
   the search in time exactly as [max_states] bounds it in space (one
   domain-local read per fresh row when no poll is set).  Returns the
   row's id, fresh when it equals the count before the call. *)
let add arena ~max_states row =
  let n = Arena.count arena in
  let id = Arena.add arena ~limit:max_states row in
  if id < 0 || id = n then begin
    Ddlock_obs.Cancel.poll ();
    if id < 0 then raise (Too_large n)
  end;
  id

exception Hit of int

(* Some of the [n] words of [e] at offset [o] is nonzero. *)
let rec any_set e o n = n > 0 && (e.(o + n - 1) <> 0 || any_set e o (n - 1))

(* Breadth-first search over packed states in an arena ({!Arena}).  Ids
   are dense and assigned in insertion order, so the BFS queue is
   exactly the id sequence and a cursor replaces it.  With [por] each
   expanded state's enabled bits are cut to its persistent set
   ({!Packed.persistent}).  With [prune] a successor that cannot reach a
   deadlock ({!Packed.may_deadlock}) is dropped before it is built: the
   expanded state's {!Packed.contenders}, counted once, decide each of
   its edges in O(1) ({!Packed.keeps}).  A dropped state's successors
   would all be dropped too, so each kept state is first discovered
   from the same kept parent as without the filter: the kept states
   keep their order and their BFS tree.  Each successor is built in one scratch
   buffer — with a canonicalizer, rewritten there to its orbit
   representative, so the arena dedups whole orbits — and copied into
   the arena only when it is fresh.  [restrict]/[found] read a state in
   place (array, offset); under symmetry they see representatives and
   must be invariant under the group (the deadlock and reduction-cycle
   predicates are).  The empty initial state is its own orbit's
   representative.

   A fresh state's enabled set is carried from its parent's
   ({!Packed.carry_enabled}), or computed afresh when symmetry moved
   the successor: expanding a state reads it, and [found ~live] is told
   whether it is non-empty.  Entering a chunk of ids gives back the
   chunk of sets before it.

   A node is expanded from the arena's row array as it stood when the
   expansion began: an [add] may move the rows to a larger array, but
   the old one still holds the node unchanged.  Returns the id of the
   first node (in insertion order) satisfying [found], or -1. *)
let bfs_loop ~name ~max_states ~restrict ~prune ~por canon lay w ~found =
  let name = if por then "explore.por" else name in
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  Obs.T.span name @@ fun () ->
  let words = Packed.words lay and ew = Packed.enabled_words lay in
  let arena = w.arena and scratch = w.scratch and en = w.en in
  let telemetry = Ddlock_obs.Control.is_on () in
  let reduce = if por then Some (Packed.por lay) else None in
  let size = ew lsl shift and off id = (id land (per - 1)) * ew in
  let last = [| -1; -1 |] in
  (* Rewrites [scratch] to its representative; true when that moved it. *)
  let canonical =
    match canon with
    | None -> fun () -> false
    | Some c ->
        let norm = Canon.normalize_packed c lay in
        fun () ->
          let rep = norm scratch in
          rep != scratch
          &&
          let moved = not (Packed.equal rep scratch) in
          Array.blit rep 0 scratch 0 words;
          moved
  in
  try
    ignore (add arena ~max_states scratch);
    record w 0 ~parent:(-1) ~via:(-1);
    let e0 = chunk w 0 size in
    Packed.enabled_into lay scratch 0 e0 0;
    if found ~live:(any_set e0 0 ew) (Arena.data arena) 0 then raise (Hit 0);
    let cursor = ref 0 in
    while !cursor < Arena.count arena do
      let id = !cursor in
      incr cursor;
      if id > 0 && off id = 0 then begin
        let c = (id lsr shift) - 1 in
        w.spare <- w.sets.(c) :: w.spare;
        w.sets.(c) <- [||]
      end;
      let a = Arena.data arena and o = id * words in
      let pe = w.sets.(id lsr shift) and po = off id in
      let n = Packed.enabled_bits lay pe po en in
      let n =
        match reduce with
        | None -> n
        | Some r ->
            let p = Packed.persistent r a o en n in
            if telemetry then Obs.por_expand ~enabled:n ~persistent:p;
            p
      in
      let c = if prune then Packed.contenders lay a o last else 3 in
      for i = 0 to n - 1 do
        let g = en.(i) in
        (* [c >= 3] keeps every edge, with no call. *)
        if c < 3 && not (Packed.keeps c last g) then begin
          if telemetry then Obs.prune ()
        end
        else begin
          Packed.apply_into lay a o g scratch;
          let moved = canonical () in
          if restrict scratch 0 then begin
            let fresh = Arena.count arena in
            if add arena ~max_states scratch = fresh then begin
              record w fresh ~parent:id ~via:g;
              let e = chunk w (fresh lsr shift) size and eo = off fresh in
              if moved then Packed.enabled_into lay scratch 0 e eo
              else Packed.carry_enabled lay scratch 0 g pe po e eo;
              if telemetry then Obs.hit moved;
              if
                found ~live:(any_set e eo ew) (Arena.data arena)
                  (fresh * words)
              then raise (Hit fresh)
            end
          end
        end
      done
    done;
    -1
  with Hit id -> id

(* ------------------------------ spaces ----------------------------- *)

type space = {
  lay : Packed.layout;
  canon : Canon.t option;  (* Some ⇒ the arena holds orbit representatives *)
  work : work;
}

let state_count sp = Arena.count sp.work.arena

let states sp =
  let w = Packed.words sp.lay in
  Seq.init (state_count sp) (fun id ->
      Packed.decode_at sp.lay (Arena.data sp.work.arena) (id * w))

(* A state of another system's shape is not held. *)
let is_reachable sp st =
  match Packed.encode sp.lay st with
  | p ->
      let p =
        match sp.canon with
        | None -> p
        | Some c -> Canon.normalize_packed c sp.lay p
      in
      Arena.find sp.work.arena p >= 0
  | exception Invalid_argument _ -> false

let always _ _ = true

type goal = Deadlock | Deadlock_prefix

(* A goal as a [found] predicate.  A deadlock is a state with nothing
   enabled that is not finished; a deadlock prefix (Theorem 1), one
   whose reduction graph is cyclic. *)
let found lay = function
  | Deadlock ->
      fun ~live a o -> (not live) && not (Packed.all_finished_at lay a o)
  | Deadlock_prefix ->
      let cyclic = Packed.cyclic_reduction lay in
      fun ~live:_ a o -> cyclic a o

(* The space escapes, so it gets a workspace of its own. *)
let explore ?(max_states = default_cap) ?(symmetry = false) ?(por = false) sys =
  let lay = Packed.layout sys in
  let canon = if symmetry then active_canon sys else None in
  let work = fresh_work lay in
  ignore
    (bfs_loop ~name:"explore.explore" ~max_states ~restrict:always
       ~prune:false ~por canon lay work ~found:(fun ~live:_ _ _ -> false));
  { lay; canon; work }

(* A goal-directed search on [lay]: plain, or reduced by [canon] and
   persistent sets.  Both drop the states that can no longer
   deadlock. *)
let deadlock_search ~max_states ~name ~goal ~por canon lay =
  bfs_loop ~name ~max_states ~restrict:always ~prune:true ~por canon lay
    ~found:(found lay goal)

let reduced_free ~max_states ~goal lay canon =
  borrow lay
    (deadlock_search ~max_states ~name:"explore.por" ~goal ~por:true canon lay)
  < 0

let reduced_deadlock_free ?(max_states = default_cap) ?(goal = Deadlock) sys =
  reduced_free ~max_states ~goal (Packed.layout sys) (active_canon sys)

(* The one search rule.  The plain search decides, and its BFS supplies
   every witness.  Only when it gives up does the reduced search take
   over, under the same budget, and only when some reduction applies (a
   nontrivial group, or two independent steps): if it reaches no goal
   state the answer is [free].  Otherwise the plain search's
   [Too_large] stands. *)
let decide ~max_states ~goal lay ~free plain =
  match plain () with
  | r -> r
  | exception (Too_large _ as gave_up) ->
      let sys = Packed.system lay in
      let canon = active_canon sys in
      if
        (canon <> None || Indep.has_independent_pair sys)
        && try reduced_free ~max_states ~goal lay canon
           with Too_large _ -> false
      then free
      else raise gave_up

let witness_search ~max_states ~name ~goal lay () =
  borrow lay @@ fun w ->
  let id = deadlock_search ~max_states ~name ~goal ~por:false None lay w in
  if id < 0 then None
  else
    Some
      ( path w lay id,
        Packed.decode_at lay (Arena.data w.arena) (id * Packed.words lay) )

let find_deadlock ?(max_states = default_cap) ?(goal = Deadlock) sys =
  let lay = Packed.layout sys in
  let r =
    decide ~max_states ~goal lay ~free:None
      (witness_search ~max_states ~name:"explore.bfs" ~goal lay)
  in
  if r <> None then begin
    Ddlock_obs.Metrics.Counter.incr Obs.deadlock_witnesses;
    Obs.T.instant "explore.deadlock_witness"
  end;
  r

let deadlock_free ?(max_states = default_cap) ?(goal = Deadlock) sys =
  let lay = Packed.layout sys in
  decide ~max_states ~goal lay ~free:true @@ fun () ->
  borrow lay
    (deadlock_search ~max_states ~name:"explore.bfs" ~goal ~por:false None lay)
  < 0

let deadlock_on ?(max_states = default_cap) ~name lay =
  witness_search ~max_states ~name ~goal:Deadlock lay ()

type counterexample = { steps : Step.t list; cycle : int list }

(* Lemma 1 on a layout with D-arc words: the first state whose arcs are
   cyclic — at a complete state only, with [~complete].  The reported
   cycle is {!Topo.find_cycle} over the hit's arcs in [(i, k)] order. *)
let lemma1_on ?(max_states = default_cap) ~name ~complete lay =
  let found ~live:_ a o =
    ((not complete) || Packed.all_finished_at lay a o)
    && Packed.cyclic_at lay a o
  in
  borrow lay @@ fun w ->
  match
    bfs_loop ~name ~max_states ~restrict:always ~prune:false ~por:false None
      lay w ~found
  with
  | -1 -> Ok ()
  | id ->
      let o = id * Packed.words lay in
      let d =
        Digraph.create
          (System.size (Packed.system lay))
          (Packed.arcs_at lay (Arena.data w.arena) o)
      in
      Error { steps = path w lay id; cycle = Option.get (Topo.find_cycle d) }

let safe_and_deadlock_free ?max_states sys =
  lemma1_on ?max_states ~name:"explore.lemma1_search" ~complete:false
    (Packed.layout ~arcs:true sys)

let safe ?max_states sys =
  lemma1_on ?max_states ~name:"explore.lemma1_search" ~complete:true
    (Packed.layout ~arcs:true sys)

let has_schedule sys target =
  let lay = Packed.layout sys in
  let goal = Packed.encode lay target in
  let rec sub a o k =
    k >= Array.length goal
    || (a.(o + k) land lnot goal.(k) = 0 && sub a o (k + 1))
  in
  borrow lay @@ fun w ->
  match
    bfs_loop ~name:"explore.bfs" ~max_states:default_cap
      ~restrict:(fun a o -> sub a o 0)
      ~prune:false ~por:false None lay w
      ~found:(fun ~live:_ a o -> Packed.equal_at goal a o)
  with
  | -1 -> None
  | id -> Some (path w lay id)

let complete_schedules sys =
  let rec go st rev_steps () =
    if State.all_finished sys st then
      Seq.Cons (List.rev rev_steps, Seq.empty)
    else
      Seq.concat_map
        (fun step -> go (State.apply st step) (step :: rev_steps))
        (List.to_seq (State.enabled sys st))
        ()
  in
  go (State.initial sys) []

let count_complete_schedules sys = Seq.length (complete_schedules sys)

type run = Completed of Step.t list | Deadlocked of Step.t list * State.t

let random_run rng sys =
  let rec go st rev_steps =
    if State.all_finished sys st then Completed (List.rev rev_steps)
    else
      match State.enabled sys st with
      | [] -> Deadlocked (List.rev rev_steps, st)
      | steps ->
          let step = List.nth steps (Random.State.int rng (List.length steps)) in
          go (State.apply st step) (step :: rev_steps)
  in
  go (State.initial sys) []
