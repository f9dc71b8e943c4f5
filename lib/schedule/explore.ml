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

  (* Partial-order-reduction telemetry, bumped once per work-item
     expansion.  [por_pruned] sums the enabled transitions not expanded;
     [por_persistent_size] sums the persistent-set sizes. *)
  let por_pruned = Ddlock_obs.Metrics.Counter.make "por.pruned"

  let por_persistent_size =
    Ddlock_obs.Metrics.Counter.make "por.persistent_size"

  let por_expand ~enabled ~persistent ~selected =
    Ddlock_obs.Metrics.Counter.add por_pruned (enabled - selected);
    Ddlock_obs.Metrics.Counter.add por_persistent_size persistent
end

(* The canonicalizer a symmetric search should use: [None] when symmetry
   is off or the automorphism group is trivial (then canonicalization is
   the identity and the plain engine is already optimal). *)
let active_canon ~symmetry sys =
  if not symmetry then None
  else
    let c = Canon.detect sys in
    if Canon.nontrivial c then begin
      Ddlock_obs.Metrics.Gauge.set_max Obs.orbit_gauge (Canon.orbit_size c);
      Some c
    end
    else None

let default_cap = 2_000_000

(* --------------------------- the search tree -----------------------

   Ids are dense and assigned in insertion order; the BFS tree lives in
   arrays indexed by id: the parent (-1 at the root), and the global
   bit of the step reaching the node. *)

type tree = { mutable parent : int array; mutable via : int array }

let tree_create () = { parent = [||]; via = [||] }

(* Record the fresh node [id] as a child of [parent]. *)
let record t id ~parent ~via =
  let cap = Array.length t.parent in
  if id >= cap then begin
    let grow a =
      let b = Array.make (max 64 (2 * cap)) (-1) in
      Array.blit a 0 b 0 cap;
      b
    in
    t.parent <- grow t.parent;
    t.via <- grow t.via
  end;
  t.parent.(id) <- parent;
  t.via.(id) <- via;
  Obs.visit ()

let path t lay id =
  let rec go id acc =
    let p = t.parent.(id) in
    if p < 0 then acc else go p (Packed.step lay t.via.(id) :: acc)
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

(* Breadth-first search over packed states in an arena ({!Arena}).  Ids
   are dense and assigned in insertion order, so the BFS queue is
   exactly the id sequence and a cursor replaces it.  Each successor is
   built in one scratch buffer — with a canonicalizer, rewritten there
   to its orbit representative, so the arena dedups whole orbits — and
   copied into the arena only when it is fresh.  [restrict]/[found] read
   a state in place (array, offset); under symmetry they see
   representatives and must be invariant under the group (the deadlock
   and reduction-cycle predicates are).  [found ~live] is told when the
   state is known to have an enabled step: one of its parent's steps is
   still enabled ({!Packed.keeps_enabled}).  The empty initial state is
   its own orbit's representative.

   A node is expanded from the arena's row array as it stood when the
   expansion began: an [add] may move the rows to a larger array, but
   the old one still holds the node unchanged.  Returns the tree and the
   id of the first node (in insertion order) satisfying [found], or
   -1. *)
let bfs_loop ~name ~max_states ~restrict canon lay arena ~found =
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  Obs.T.span name @@ fun () ->
  let w = Packed.words lay in
  let t = tree_create () in
  let telemetry = Ddlock_obs.Control.is_on () in
  let scratch = Packed.initial lay in
  let en = Array.make (Packed.nodes lay) 0 in
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
          Array.blit rep 0 scratch 0 w;
          moved
  in
  let hit =
    try
      ignore (add arena ~max_states scratch);
      record t 0 ~parent:(-1) ~via:(-1);
      if found ~live:false (Arena.data arena) 0 then raise (Hit 0);
      let cursor = ref 0 in
      while !cursor < Arena.count arena do
        let id = !cursor in
        incr cursor;
        let a = Arena.data arena and o = id * w in
        let n = ref 0 in
        Packed.iter_enabled lay a o (fun g ->
            en.(!n) <- g;
            incr n);
        for i = 0 to !n - 1 do
          let g = en.(i) in
          Packed.apply_into lay a o g scratch;
          let moved = canonical () in
          if restrict scratch 0 then begin
            let fresh = Arena.count arena in
            if add arena ~max_states scratch = fresh then begin
              record t fresh ~parent:id ~via:g;
              if telemetry then Obs.hit moved;
              let live = Packed.keeps_enabled lay en !n i in
              if found ~live (Arena.data arena) (fresh * w) then
                raise (Hit fresh)
            end
          end
        done
      done;
      -1
    with Hit id -> id
  in
  (t, hit)

(* ------------------------------ spaces ----------------------------- *)

type space = {
  lay : Packed.layout;
  canon : Canon.t option;  (* Some ⇒ the arena holds orbit representatives *)
  arena : Arena.t;
  tree : tree;
}

let system sp = Packed.system sp.lay
let state_count sp = Arena.count sp.arena

let states sp =
  let w = Packed.words sp.lay in
  Seq.init (state_count sp) (fun id ->
      Packed.decode_at sp.lay (Arena.data sp.arena) (id * w))

(* A state of another system's shape is not held. *)
let find_rep sp st =
  let rep = match sp.canon with None -> st | Some c -> fst (Canon.normalize c st) in
  match Packed.encode sp.lay rep with
  | p ->
      let id = Arena.find sp.arena p in
      if id < 0 then None else Some id
  | exception Invalid_argument _ -> None

let is_reachable sp st = find_rep sp st <> None

let schedule_to sp st =
  Option.map
    (fun id ->
      let steps = path sp.tree sp.lay id in
      match sp.canon with
      | None -> steps
      (* The stored path reaches the representative of [st]'s orbit;
         replay it through the permutations to reach [st] itself. *)
      | Some c -> Canon.realize_to c steps st)
    (find_rep sp st)

(* A witness found in the quotient space, translated back to the
   original system. *)
let witness sp id =
  let steps = path sp.tree sp.lay id in
  match sp.canon with
  | None ->
      let o = id * Packed.words sp.lay in
      (steps, Packed.decode_at sp.lay (Arena.data sp.arena) o)
  | Some c -> Canon.realize c steps

(* Persistent/sleep-set selective search (partial-order reduction).
   Work items are (state id, sleep set); [Indep.expand] selects the
   persistent steps not in the sleep set and computes each successor's
   inherited sleep set.  Re-arriving at a stored state with a
   non-covering sleep set shrinks the stored set to the intersection
   and re-expands the state (Godefroid's covering rule), so sleeping
   never suppresses the only path into a deadlock.  Stored sleep sets
   only shrink, which bounds re-expansions; the arena is keyed by
   state alone, so the reduced search never holds more states than the
   plain engine.  [found] must be implied by deadlock (evaluated at
   first insertion only): the persistent-set construction preserves
   reachability of deadlock states, not of arbitrary targets.
   [Indep.expand] works on the decoded node; its successors are
   re-encoded. *)
let por_search ~max_states ~restrict canon lay arena ~found =
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  Obs.T.span "explore.por" @@ fun () ->
  let sys = Packed.system lay and w = Packed.words lay in
  let t = tree_create () in
  let sleeps = ref [||] in
  let set_sleep id z =
    let cap = Array.length !sleeps in
    if id >= cap then begin
      let b = Array.make (max 64 (2 * cap)) [] in
      Array.blit !sleeps 0 b 0 cap;
      sleeps := b
    end;
    !sleeps.(id) <- z
  in
  let q = Queue.create () in
  let init = Packed.initial lay in
  let hit =
    try
      ignore (add arena ~max_states init);
      record t 0 ~parent:(-1) ~via:(-1);
      set_sleep 0 [];
      if found ~live:false init 0 then raise (Hit 0);
      Queue.push (0, []) q;
      while not (Queue.is_empty q) do
        let id, sleep = Queue.pop q in
        let node = Packed.decode_at lay (Arena.data arena) (id * w) in
        let exp = Indep.expand ?canon sys node ~sleep in
        Obs.por_expand ~enabled:exp.Indep.enabled_count
          ~persistent:exp.Indep.persistent_count
          ~selected:(List.length exp.Indep.succs);
        List.iter
          (fun { Indep.step; succ; moved; sleep = child } ->
            let succ = Packed.encode lay succ in
            if restrict succ 0 then
              let n = Arena.count arena in
              let id' = add arena ~max_states succ in
              if id' = n then begin
                record t n ~parent:id ~via:(Packed.bit lay step);
                Obs.hit moved;
                set_sleep id' child;
                if found ~live:false succ 0 then raise (Hit id');
                Queue.push (id', child) q
              end
              else
                match Indep.sleep_covered ~stored:!sleeps.(id') ~incoming:child with
                | `Covered -> ()
                | `Shrink z ->
                    set_sleep id' z;
                    Queue.push (id', z) q)
          exp.Indep.succs
      done;
      -1
    with Hit id -> id
  in
  (t, hit)

(* A caller's predicate on {!State.t}, evaluated on the decoded state. *)
let decoded lay f a o = f (Packed.decode_at lay a o)

let always _ _ = true
let never_found ~live:_ _ _ = false

(* Every search of a state space: the id of the first node satisfying
   [found], and the space. *)
let run ~name ~max_states ~restrict ~symmetry ~por lay ~found =
  let canon = active_canon ~symmetry (Packed.system lay) in
  let arena = Arena.create ~words:(Packed.words lay) in
  let tree, hit =
    if por then por_search ~max_states ~restrict canon lay arena ~found
    else bfs_loop ~name ~max_states ~restrict canon lay arena ~found
  in
  ((if hit < 0 then None else Some hit), { lay; canon; arena; tree })

let explore ?(max_states = default_cap) ?(symmetry = false) ?(por = false) sys =
  snd
    (run ~name:"explore.explore" ~max_states ~restrict:always ~symmetry ~por
       (Packed.layout sys) ~found:never_found)

let bfs ?(max_states = default_cap) ?restrict ?(symmetry = false) ?(por = false)
    sys ~found =
  let lay = Packed.layout sys in
  let restrict = match restrict with None -> always | Some f -> decoded lay f in
  let hit, sp =
    run ~name:"explore.bfs" ~max_states ~restrict ~symmetry ~por lay
      ~found:(fun ~live:_ a o -> decoded lay found a o)
  in
  Option.map (witness sp) hit

(* The deadlock search tests [Packed.is_deadlock_at] on the arena's
   rows, unless the state is known to be live. *)
let deadlock_search ?(max_states = default_cap) ?(symmetry = false)
    ?(name = "explore.bfs") ~por lay =
  let hit, sp =
    run ~name ~max_states ~restrict:always ~symmetry ~por lay
      ~found:(fun ~live a o -> (not live) && Packed.is_deadlock_at lay a o)
  in
  Option.map (witness sp) hit

let count_witness r =
  if r <> None then begin
    Ddlock_obs.Metrics.Counter.incr Obs.deadlock_witnesses;
    Obs.T.instant "explore.deadlock_witness"
  end;
  r

let find_deadlock ?max_states ?symmetry ?(por = false) sys =
  let lay = Packed.layout sys in
  count_witness
    (if por then
       (* Verdict from the reduced search; witness from a plain
          non-symmetric re-search so [--por] output is byte-identical to
          plain [analyze] under every flag combination.  When the plain
          re-search blows the budget the reduced witness — valid, just
          not BFS-minimal — is returned instead. *)
       match deadlock_search ?max_states ?symmetry ~por:true lay with
       | None -> None
       | Some raw -> (
           match deadlock_search ?max_states ~por:false lay with
           | Some w -> Some w
           | None -> Some raw
           | exception Too_large _ -> Some raw)
     else deadlock_search ?max_states ?symmetry ~por:false lay)

let deadlock_free ?max_states ?symmetry ?(por = false) sys =
  if por then
    deadlock_search ?max_states ?symmetry ~por:true (Packed.layout sys) = None
  else find_deadlock ?max_states ?symmetry sys = None

let deadlock_on ?max_states ~name lay =
  deadlock_search ?max_states ~name ~por:false lay

type counterexample = { steps : Step.t list; cycle : int list }

(* Lemma 1 on a layout with D-arc words: the first state whose arcs are
   cyclic — at a complete state only, with [~complete].  The reported
   cycle is {!Topo.find_cycle} over the hit's arcs in [(i, k)] order. *)
let lemma1_on ?(max_states = default_cap) ~name ~complete lay =
  let found ~live:_ a o =
    ((not complete) || Packed.all_finished_at lay a o)
    && Packed.cyclic_at lay a o
  in
  match
    run ~name ~max_states ~restrict:always ~symmetry:false ~por:false lay
      ~found
  with
  | None, _ -> Ok ()
  | Some id, sp ->
      let o = id * Packed.words lay in
      let d =
        Digraph.create
          (System.size (Packed.system lay))
          (Packed.arcs_at lay (Arena.data sp.arena) o)
      in
      Error
        { steps = path sp.tree lay id; cycle = Option.get (Topo.find_cycle d) }

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
  let hit, sp =
    run ~name:"explore.bfs" ~max_states:default_cap
      ~restrict:(fun a o -> sub a o 0)
      ~symmetry:false ~por:false lay
      ~found:(fun ~live:_ a o -> Packed.equal_at goal a o)
  in
  Option.map (path sp.tree lay) hit

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
