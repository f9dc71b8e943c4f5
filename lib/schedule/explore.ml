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

(* Exact cap: a search may hold at most [max_states] states; discovering
   one more raises [Too_large] with the number already held.  The check
   covers the initial state too, so the table never exceeds the budget.
   The cancellation poll rides the same path: an installed deadline
   bounds the search in time exactly as [max_states] bounds it in
   space (one domain-local read per insertion when no poll is set). *)
let check_room count max_states =
  Ddlock_obs.Cancel.poll ();
  if count >= max_states then raise (Too_large count)

(* ------------------------- search instances ------------------------ *)

type 'n ops = {
  hash : 'n -> int;
  equal : 'n -> 'n -> bool;
  next : 'n -> (Step.t -> 'n -> unit) -> unit;
  restrict : 'n -> bool;
  found : 'n -> bool;
  moved : parent:'n -> Step.t -> 'n -> bool;
}

let never ~parent:_ _ _ = false

(* Nodes are packed states ({!Packed}).  With a canonicalizer the
   successors are orbit representatives, so interning them dedups whole
   orbits; [restrict]/[found] then see representatives and must be
   invariant under the group (the deadlock and reduction-cycle
   predicates are). *)
let state_ops canon lay ~restrict ~found =
  let norm, moved =
    match canon with
    | None -> (Fun.id, never)
    | Some c ->
        ( Canon.normalize_packed c lay,
          fun ~parent step rep ->
            not (Packed.equal (Packed.apply lay parent step) rep) )
  in
  {
    hash = Packed.hash;
    equal = Packed.equal;
    next =
      (fun p f ->
        Packed.iter_enabled lay p (fun s ->
            f s (norm (Packed.apply lay p s))));
    restrict;
    found;
    moved;
  }

let initial_node canon lay =
  match canon with
  | None -> Packed.initial lay
  | Some c -> Canon.normalize_packed c lay (Packed.initial lay)

(* A caller's predicate on {!State.t}, evaluated on the decoded node. *)
let decoded lay f p = f (Packed.decode lay p)

(* ------------------------- the search table ------------------------

   Nodes are interned ({!Intern}) with dense ids in insertion order; the
   BFS tree lives in packed arrays indexed by id. *)

type 'n table = {
  nodes : 'n Intern.t;
  mutable parent : int array;  (* -1 at the root *)
  mutable via : Step.t array;
}

let no_step = Step.v (-1) (-1)

let table_create ~hash ~equal =
  { nodes = Intern.create ~equal ~hash (); parent = [||]; via = [||] }

(* Intern [node] as a child of [parent].  Dedup comes before the cap
   check, so a node already held (an orbit already stored, under
   symmetry) never counts against [max_states]. *)
let add t ~max_states node ~parent ~via =
  let id, fresh = Intern.intern t.nodes node in
  if fresh then begin
    check_room id max_states;
    let cap = Array.length t.parent in
    if id >= cap then begin
      let grow a fill =
        let b = Array.make (max 64 (2 * cap)) fill in
        Array.blit a 0 b 0 cap;
        b
      in
      t.parent <- grow t.parent (-1);
      t.via <- grow t.via no_step
    end;
    t.parent.(id) <- parent;
    t.via.(id) <- via;
    Obs.visit ()
  end;
  (id, fresh)

let path t id =
  let rec go id acc =
    let p = t.parent.(id) in
    if p < 0 then acc else go p (t.via.(id) :: acc)
  in
  go id []

exception Hit of int

(* Breadth-first search over [ops].  Ids are dense and assigned in
   insertion order, so the BFS queue is exactly the id sequence and a
   cursor replaces it.  Returns the table and the id of the first node
   (in insertion order) satisfying [found], or -1. *)
let search_table ~name ~max_states ops init =
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  Obs.T.span name @@ fun () ->
  let t = table_create ~hash:ops.hash ~equal:ops.equal in
  let telemetry = Ddlock_obs.Control.is_on () in
  let hit =
    try
      ignore (add t ~max_states init ~parent:(-1) ~via:no_step);
      if ops.found init then raise (Hit 0);
      let cursor = ref 0 in
      while !cursor < Intern.count t.nodes do
        let id = !cursor in
        incr cursor;
        let node = Intern.get t.nodes id in
        ops.next node (fun step node' ->
            if ops.restrict node' then
              let id', fresh = add t ~max_states node' ~parent:id ~via:step in
              if fresh then begin
                if telemetry then Obs.hit (ops.moved ~parent:node step node');
                if ops.found node' then raise (Hit id')
              end)
      done;
      -1
    with Hit id -> id
  in
  (t, hit)

let search ?(max_states = default_cap) ~name ops init =
  let t, hit = search_table ~name ~max_states ops init in
  if hit < 0 then None else Some (path t hit, Intern.get t.nodes hit)

(* ------------------------------ spaces ----------------------------- *)

type space = {
  lay : Packed.layout;
  canon : Canon.t option;  (* Some ⇒ the table holds orbit representatives *)
  table : Packed.t table;
}

let system sp = Packed.system sp.lay
let state_count sp = Intern.count sp.table.nodes

let states sp =
  Seq.map (Packed.decode sp.lay)
    (Seq.init (state_count sp) (Intern.get sp.table.nodes))

(* A state of another system's shape is not held. *)
let find_rep sp st =
  let rep = match sp.canon with None -> st | Some c -> fst (Canon.normalize c st) in
  match Packed.encode sp.lay rep with
  | p -> Intern.find sp.table.nodes p
  | exception Invalid_argument _ -> None

let is_reachable sp st = find_rep sp st <> None

let schedule_to sp st =
  Option.map
    (fun id ->
      let steps = path sp.table id in
      match sp.canon with
      | None -> steps
      (* The stored path reaches the representative of [st]'s orbit;
         replay it through the permutations to reach [st] itself. *)
      | Some c -> Canon.realize_to c steps st)
    (find_rep sp st)

(* A witness found in the quotient space, translated back to the
   original system. *)
let witness canon lay t id =
  let steps = path t id in
  match canon with
  | None -> (steps, Packed.decode lay (Intern.get t.nodes id))
  | Some c -> Canon.realize c steps

(* Persistent/sleep-set selective search (partial-order reduction).
   Work items are (state id, sleep set); [Indep.expand] selects the
   persistent steps not in the sleep set and computes each successor's
   inherited sleep set.  Re-arriving at a stored state with a
   non-covering sleep set shrinks the stored set to the intersection
   and re-expands the state (Godefroid's covering rule), so sleeping
   never suppresses the only path into a deadlock.  Stored sleep sets
   only shrink, which bounds re-expansions; the table is keyed by
   state alone, so the reduced search never holds more states than the
   plain engine.  [found] must be implied by deadlock (evaluated at
   first insertion only): the persistent-set construction preserves
   reachability of deadlock states, not of arbitrary targets.
   [Indep.expand] works on the decoded node; its successors are
   re-encoded. *)
let por_search ~max_states ~restrict canon lay ~found =
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  Obs.T.span "explore.por" @@ fun () ->
  let sys = Packed.system lay in
  let t = table_create ~hash:Packed.hash ~equal:Packed.equal in
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
  let init = initial_node canon lay in
  let hit =
    try
      ignore (add t ~max_states init ~parent:(-1) ~via:no_step);
      set_sleep 0 [];
      if found init then raise (Hit 0);
      Queue.push (0, []) q;
      while not (Queue.is_empty q) do
        let id, sleep = Queue.pop q in
        let node = Packed.decode lay (Intern.get t.nodes id) in
        let exp = Indep.expand ?canon sys node ~sleep in
        Obs.por_expand ~enabled:exp.Indep.enabled_count
          ~persistent:exp.Indep.persistent_count
          ~selected:(List.length exp.Indep.succs);
        List.iter
          (fun { Indep.step; succ; moved; sleep = child } ->
            let succ = Packed.encode lay succ in
            if restrict succ then
              let id', fresh = add t ~max_states succ ~parent:id ~via:step in
              if fresh then begin
                Obs.hit moved;
                set_sleep id' child;
                if found succ then raise (Hit id');
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

let always _ = true
let never_found _ = false

(* Every search of a state space: the first node satisfying [found]
   (translated back to the original system), and the space. *)
let run ~name ~max_states ~restrict ~symmetry ~por lay ~found =
  let canon = active_canon ~symmetry (Packed.system lay) in
  let table, hit =
    if por then por_search ~max_states ~restrict canon lay ~found
    else
      search_table ~name ~max_states
        (state_ops canon lay ~restrict ~found)
        (initial_node canon lay)
  in
  ( (if hit < 0 then None else Some (witness canon lay table hit)),
    { lay; canon; table } )

let explore ?(max_states = default_cap) ?(symmetry = false) ?(por = false) sys =
  snd
    (run ~name:"explore.explore" ~max_states ~restrict:always ~symmetry ~por
       (Packed.layout sys) ~found:never_found)

let bfs ?(max_states = default_cap) ?restrict ?(symmetry = false) ?(por = false)
    sys ~found =
  let lay = Packed.layout sys in
  let restrict = match restrict with None -> always | Some f -> decoded lay f in
  fst
    (run ~name:"explore.bfs" ~max_states ~restrict ~symmetry ~por lay
       ~found:(decoded lay found))

(* The deadlock search tests [Packed.is_deadlock] on the packed nodes. *)
let deadlock_search ?(max_states = default_cap) ?(symmetry = false) ~por lay =
  fst
    (run ~name:"explore.bfs" ~max_states ~restrict:always ~symmetry ~por lay
       ~found:(Packed.is_deadlock lay))

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

type counterexample = { steps : Step.t list; cycle : int list }

(* Extended state: prefix vector plus the accumulated D-arcs (a monotone
   function of the executed lock steps and their order). *)
module Edge_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let d_arcs_of_step sys st (step : Step.t) =
  let tx = System.txn sys step.txn in
  let nd = Transaction.node tx step.node in
  match nd.Node.op with
  | Node.Unlock -> []
  | Node.Lock ->
      Dgraph.arcs_added_by_lock sys
        ~locked_before:(fun k ->
          let tk = System.txn sys k in
          match Transaction.lock_node tk nd.entity with
          | None -> false
          | Some l -> Bitset.mem st.(k) l)
        step.txn nd.entity

let edge_graph n es = Digraph.create n (Edge_set.elements es)

module Lemma1 = struct
  type node = { st : State.t; es : Edge_set.t }

  let initial sys = { st = State.initial sys; es = Edge_set.empty }
  let equal a b = State.equal a.st b.st && Edge_set.equal a.es b.es

  (* Folds over the elements in order: the balanced tree's shape depends
     on insertion order, so [Hashtbl.hash] of [es] itself would not be
     compatible with [Edge_set.equal]. *)
  let hash n =
    Edge_set.fold
      (fun (a, b) h -> (((h * 31) + a) * 31) + b)
      n.es (State.hash n.st)
    land max_int

  let next sys n =
    List.map
      (fun step ->
        let new_arcs = d_arcs_of_step sys n.st step in
        let es' =
          List.fold_left (fun acc e -> Edge_set.add e acc) n.es new_arcs
        in
        (step, { st = State.apply n.st step; es = es' }))
      (State.enabled sys n.st)

  let cycle sys n = Topo.find_cycle (edge_graph (System.size sys) n.es)
  let complete sys n = State.all_finished sys n.st
end

(* [`All_cyclic] stops on the first cyclic-D extended state,
   [`Complete_cyclic] on cyclic D at a complete state. *)
let lemma1_ops sys ~report =
  {
    hash = Lemma1.hash;
    equal = Lemma1.equal;
    next =
      (fun n f -> List.iter (fun (s, n') -> f s n') (Lemma1.next sys n));
    restrict = (fun _ -> true);
    found =
      (fun n ->
        Lemma1.cycle sys n <> None
        && (match report with
           | `All_cyclic -> true
           | `Complete_cyclic -> Lemma1.complete sys n));
    moved = never;
  }

let lemma1_search ?max_states sys ~report =
  match
    search ?max_states ~name:"explore.lemma1_search" (lemma1_ops sys ~report)
      (Lemma1.initial sys)
  with
  | None -> Ok ()
  | Some (steps, n) -> Error { steps; cycle = Option.get (Lemma1.cycle sys n) }

let safe_and_deadlock_free ?max_states sys =
  lemma1_search ?max_states sys ~report:`All_cyclic

let safe ?max_states sys =
  lemma1_search ?max_states sys ~report:`Complete_cyclic

let has_schedule sys target =
  let lay = Packed.layout sys in
  let goal = Packed.encode lay target in
  let sub p = Array.for_all2 (fun a b -> a land lnot b = 0) p goal in
  Option.map fst
    (fst
       (run ~name:"explore.bfs" ~max_states:default_cap ~restrict:sub
          ~symmetry:false ~por:false lay ~found:(Packed.equal goal)))

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
