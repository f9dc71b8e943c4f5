open Ddlock_schedule

(* Multicore state-space exploration: the relaxed work-stealing engine.

   [jobs] workers run independent work-stealing loops ({!Ws_deque}: LIFO
   owner end, batch FIFO steals), and the visited set is a fixed number
   of hash shards, each an intern table ({!Ddlock_schedule.Intern})
   behind its own mutex.  Dedup compares structural hashes and
   [ops.equal], and every stored state gets a dense integer id, so
   parent pointers and via-steps live in packed int arrays (the arena)
   instead of per-entry records.

   What is preserved exactly: the set of reachable states (when no
   witness/cap/cancel stops the search early), hence verdicts; witness
   VALIDITY (the parent chain is a real path from the initial state).
   What is relaxed: discovery order, which witness is found first, and
   which counters tick where.  Callers that need jobs-invariant output
   take the witness of a positive verdict from the sequential engine
   ([find], [find_deadlock], [safe], [safe_and_deadlock_free]).

   Termination: [pending] counts queued-but-unfinished work items
   (incremented before a push, decremented after the item's expansion
   completes), so an empty deque with [pending = 0] means the whole
   search is drained.  Early exit: any worker that finds a witness
   CASes its id into [witness] and raises the [stop] flag; the
   [max_states] cap works the same way, so the cap can overshoot by at
   most the items in flight (never undershoot — the overflow check
   happens after a genuinely new state is interned).  Worker 0 runs in
   the calling domain, where it polls {!Ddlock_obs.Cancel} (the poll
   slot is domain-local), raises [stop] on cancellation and re-raises
   after joining the other domains — that is how serve deadlines reach
   the child domains.

   With [jobs = 1] every entry point delegates to the sequential
   {!Explore}: this module is the one place that picks the engine. *)

let validate_jobs jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "jobs must be >= 1 (got %d)" jobs)

(* Telemetry.  The [explore.*], [canon.*] and [por.*] counters are shared
   by name with the sequential engine (see {!Explore}).  The [par.*]
   counters describe racy scheduling decisions (who stole what, which
   arrival deduplicated) and vary from run to run. *)
module Obs = struct
  module T = Ddlock_obs.Trace
  module M = Ddlock_obs.Metrics

  let states_visited = M.Counter.make "explore.states_visited"
  let deadlock_witnesses = M.Counter.make "explore.deadlock_witnesses"
  let searches = M.Counter.make "explore.searches"
  let canon_hits = M.Counter.make "canon.hits"
  let steals = M.Counter.make "par.steals"
  let intern_hits = M.Counter.make "par.intern_hits"
  let arena_reuse = M.Counter.make "par.arena_reuse"
  let por_pruned = M.Counter.make "por.pruned"
  let por_persistent_size = M.Counter.make "por.persistent_size"

  let por_expand ~enabled ~persistent ~selected =
    M.Counter.add por_pruned (enabled - selected);
    M.Counter.add por_persistent_size persistent
end

let shard_count = 64

type 'n shard = {
  lock : Mutex.t;
  nodes : 'n Intern.t;
  mutable parent : int array;  (* global id of the parent; -1 at the root *)
  mutable via_txn : int array;  (* via step, packed; -1 at the root *)
  mutable via_node : int array;
  mutable sleep : Step.t list array;  (* POR only: stored sleep sets *)
}

let shard_create ~hash ~equal () =
  {
    lock = Mutex.create ();
    nodes = Intern.create ~equal ~hash ();
    parent = [||];
    via_txn = [||];
    via_node = [||];
    sleep = [||];
  }

(* Caller holds [lock].  Grow the packed arrays to cover [lid]. *)
let ensure_arrays sh lid =
  let cap = Array.length sh.parent in
  if lid >= cap then begin
    let ncap = max 16 (max (lid + 1) (2 * cap)) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    sh.parent <- grow sh.parent (-1);
    sh.via_txn <- grow sh.via_txn (-1);
    sh.via_node <- grow sh.via_node (-1);
    sh.sleep <- grow sh.sleep []
  end

let shard_of ~hash n = hash n land max_int mod shard_count
let gid ~shard lid = (lid * shard_count) + shard

(* Caller holds [lock] and has just interned [lid]. *)
let record sh lid ~parent (step : Step.t) =
  ensure_arrays sh lid;
  sh.parent.(lid) <- parent;
  sh.via_txn.(lid) <- step.Step.txn;
  sh.via_node.(lid) <- step.Step.node

(* Steps from the root to [gid], rebuilt from the packed parent/via
   chains (read-only after the worker domains have been joined). *)
let path shards gid0 =
  let rec go g acc =
    let sh = shards.(g mod shard_count) and lid = g / shard_count in
    let p = sh.parent.(lid) in
    if p < 0 then acc else go p (Step.v sh.via_txn.(lid) sh.via_node.(lid) :: acc)
  in
  go gid0 []

let node shards g = Intern.get shards.(g mod shard_count).nodes (g / shard_count)

type 'n outcome = Space of 'n shard array * int | Witness of Step.t list * 'n

(* The search state shared by the plain and POR cores. *)
type 'n run = {
  shards : 'n shard array;
  total : int Atomic.t;
  stop : bool Atomic.t;
  witness : int Atomic.t;
  overflow : bool Atomic.t;
  pending : int Atomic.t;
}

let run_create ~hash ~equal =
  {
    shards = Array.init shard_count (fun _ -> shard_create ~hash ~equal ());
    total = Atomic.make 1;
    stop = Atomic.make false;
    witness = Atomic.make (-1);
    overflow = Atomic.make false;
    pending = Atomic.make 1;
  }

(* Charge a freshly interned state against the cap; [true] when it fits
   (the caller then reports it and either stops on [found] or enqueues
   it). *)
let admit r ~max_states =
  let before = Atomic.fetch_and_add r.total 1 in
  if before >= max_states then begin
    Atomic.set r.overflow true;
    Atomic.set r.stop true;
    false
  end
  else begin
    Obs.M.Counter.incr Obs.states_visited;
    true
  end

let hit r g =
  ignore (Atomic.compare_and_set r.witness (-1) g);
  Atomic.set r.stop true

(* The work-stealing worker loop shared by the plain and POR cores.
   [process dq item] expands one work item, pushing children onto
   [dq]. *)
let run_workers ~max_states ~jobs r ~deques ~process =
  let worker w =
    let dq = deques.(w) in
    let rec steal tries v =
      if tries >= jobs then 0
      else if v = w then steal (tries + 1) ((v + 1) mod jobs)
      else
        let n = Ws_deque.steal_into dq ~victim:deques.(v) in
        if n > 0 then n else steal (tries + 1) ((v + 1) mod jobs)
    in
    let rec loop () =
      if w = 0 then Ddlock_obs.Cancel.poll ();
      if not (Atomic.get r.stop) then
        match Ws_deque.pop dq with
        | Some item ->
            process dq item;
            Atomic.decr r.pending;
            loop ()
        | None ->
            if Atomic.get r.pending = 0 then ()
            else begin
              let stolen = steal 0 ((w + 1) mod jobs) in
              if stolen > 0 then Obs.M.Counter.add Obs.steals stolen
              else Domain.cpu_relax ();
              loop ()
            end
    in
    loop ()
  in
  let cancelled = ref None in
  let req = Ddlock_obs.Request.current () in
  let doms =
    Array.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Ddlock_obs.Request.with_id req (fun () ->
                try worker (i + 1)
                with e ->
                  Atomic.set r.stop true;
                  raise e)))
  in
  (try worker 0
   with Ddlock_obs.Cancel.Cancelled as e ->
     Atomic.set r.stop true;
     cancelled := Some e);
  Array.iter Domain.join doms;
  (match !cancelled with Some e -> raise e | None -> ());
  Obs.M.Counter.add Obs.intern_hits
    (Array.fold_left (fun a sh -> a + Intern.hits sh.nodes) 0 r.shards);
  Obs.M.Counter.add Obs.arena_reuse
    (Array.fold_left (fun a d -> a + Ws_deque.reuses d) 0 deques);
  let w = Atomic.get r.witness in
  if w >= 0 then Witness (path r.shards w, node r.shards w)
  else if Atomic.get r.overflow then
    (* Exactly [max_states] states were admitted, as in the sequential
       engine; the overshoot was interned but never counted. *)
    raise (Explore.Too_large max_states)
  else Space (r.shards, Atomic.get r.total)

(* Count the search and intern the root (the cap must hold it). *)
let start ~max_states ~hash ~equal init =
  Obs.M.Counter.incr Obs.searches;
  if max_states < 1 then raise (Explore.Too_large 0);
  let r = run_create ~hash ~equal in
  let s0 = shard_of ~hash init in
  let lid0, _ = Intern.intern r.shards.(s0).nodes init in
  ensure_arrays r.shards.(s0) lid0;
  Obs.M.Counter.incr Obs.states_visited;
  (r, gid ~shard:s0 lid0)

let span name ~jobs f =
  Obs.T.span name ~args:[ ("jobs", string_of_int jobs) ] f

let search_core ~max_states ~jobs (ops : _ Explore.ops) init =
  span "par.search" ~jobs @@ fun () ->
  let r, g0 = start ~max_states ~hash:ops.hash ~equal:ops.equal init in
  if ops.found init then Witness ([], init)
  else begin
    let deques = Array.init jobs (fun _ -> Ws_deque.create ()) in
    Ws_deque.push deques.(0) (g0, init);
    let telemetry = Ddlock_obs.Control.is_on () in
    let process dq (pgid, pnode) =
      ops.next pnode
        (fun step node' ->
          if (not (Atomic.get r.stop)) && ops.restrict node' then begin
            let s = shard_of ~hash:ops.hash node' in
            let sh = r.shards.(s) in
            Mutex.lock sh.lock;
            let lid, fresh = Intern.intern sh.nodes node' in
            if fresh then record sh lid ~parent:pgid step;
            Mutex.unlock sh.lock;
            if fresh && admit r ~max_states then begin
              if telemetry && ops.moved ~parent:pnode step node' then
                Obs.M.Counter.incr Obs.canon_hits;
              if ops.found node' then hit r (gid ~shard:s lid)
              else begin
                Atomic.incr r.pending;
                Ws_deque.push dq (gid ~shard:s lid, node')
              end
            end
          end)
    in
    run_workers ~max_states ~jobs r ~deques ~process
  end

(* POR: the same worker loop over (gid, state, sleep) work items.  The
   covering rule runs atomically under the shard lock — it is sound for
   ANY arrival order (sleeps only ever shrink toward the intersection,
   and every strict shrink re-expands the state), so no sequential
   replay is needed; the price is that the reduced space and the
   [por.*] counter totals depend on the race outcomes. *)
let por_core ~max_states ~jobs ~canon ~restrict ~found lay =
  span "par.por" ~jobs @@ fun () ->
  let sys = Packed.system lay in
  let init = Explore.initial_node canon lay in
  let r, g0 = start ~max_states ~hash:Packed.hash ~equal:Packed.equal init in
  if found init then Witness ([], init)
  else begin
    let deques = Array.init jobs (fun _ -> Ws_deque.create ()) in
    Ws_deque.push deques.(0) (g0, init, []);
    let process dq (pgid, pnode, sleep) =
      let exp = Indep.expand ?canon sys (Packed.decode lay pnode) ~sleep in
      Obs.por_expand ~enabled:exp.Indep.enabled_count
        ~persistent:exp.Indep.persistent_count
        ~selected:(List.length exp.Indep.succs);
      List.iter
        (fun { Indep.step; succ; moved; sleep = z } ->
          let succ = Packed.encode lay succ in
          if (not (Atomic.get r.stop)) && restrict succ then begin
            let s = shard_of ~hash:Packed.hash succ in
            let sh = r.shards.(s) in
            Mutex.lock sh.lock;
            let lid, fresh = Intern.intern sh.nodes succ in
            if fresh then begin
              record sh lid ~parent:pgid step;
              sh.sleep.(lid) <- z;
              Mutex.unlock sh.lock;
              if admit r ~max_states then begin
                if moved then Obs.M.Counter.incr Obs.canon_hits;
                if found succ then hit r (gid ~shard:s lid)
                else begin
                  Atomic.incr r.pending;
                  Ws_deque.push dq (gid ~shard:s lid, succ, z)
                end
              end
            end
            else
              match Indep.sleep_covered ~stored:sh.sleep.(lid) ~incoming:z with
              | `Covered -> Mutex.unlock sh.lock
              | `Shrink z' ->
                  sh.sleep.(lid) <- z';
                  Mutex.unlock sh.lock;
                  Atomic.incr r.pending;
                  Ws_deque.push dq (gid ~shard:s lid, succ, z')
          end)
        exp.Indep.succs
    in
    run_workers ~max_states ~jobs r ~deques ~process
  end

let core ~max_states ~jobs ~canon ~restrict ~found ~por lay =
  if por then por_core ~max_states ~jobs ~canon ~restrict ~found lay
  else
    search_core ~max_states ~jobs
      (Explore.state_ops canon lay ~restrict ~found)
      (Explore.initial_node canon lay)

(* ------------------------- public interface ------------------------ *)

type ws_space = {
  lay : Packed.layout;
  canon : Canon.t option;
  shards : Packed.t shard array;
  total : int;
  jobs : int;
}

type space = Seq of Explore.space | Ws of ws_space

let explore ?(max_states = Explore.default_cap) ?(symmetry = false)
    ?(por = false) ~jobs sys =
  validate_jobs jobs;
  if jobs = 1 then Seq (Explore.explore ~max_states ~symmetry ~por sys)
  else
    let canon = Explore.active_canon ~symmetry sys in
    let lay = Packed.layout sys in
    match
      core ~max_states ~jobs ~canon ~restrict:(fun _ -> true)
        ~found:(fun _ -> false) ~por lay
    with
    | Space (shards, total) -> Ws { lay; canon; shards; total; jobs }
    | Witness _ -> assert false

let system = function
  | Seq sp -> Explore.system sp
  | Ws w -> Packed.system w.lay
let jobs = function Seq _ -> 1 | Ws w -> w.jobs

let state_count = function
  | Seq sp -> Explore.state_count sp
  | Ws w -> w.total

let states = function
  | Seq sp -> Explore.states sp
  | Ws w ->
      Seq.concat_map
        (fun sh ->
          Seq.init (Intern.count sh.nodes) (fun lid ->
              Packed.decode w.lay (Intern.get sh.nodes lid)))
        (Array.to_seq w.shards)

(* A state of another system's shape is not held. *)
let find_gid w st =
  let rep = match w.canon with None -> st | Some c -> fst (Canon.normalize c st) in
  match Packed.encode w.lay rep with
  | exception Invalid_argument _ -> None
  | p ->
      let s = shard_of ~hash:Packed.hash p in
      Option.map (fun lid -> gid ~shard:s lid) (Intern.find w.shards.(s).nodes p)

let is_reachable sp st =
  match sp with
  | Seq sp -> Explore.is_reachable sp st
  | Ws w -> find_gid w st <> None

let schedule_to sp st =
  match sp with
  | Seq sp -> Explore.schedule_to sp st
  | Ws w ->
      Option.map
        (fun g ->
          let steps = path w.shards g in
          match w.canon with
          | None -> steps
          | Some c -> Canon.realize_to c steps st)
        (find_gid w st)

(* The work-stealing search over packed predicates ([jobs > 1]). *)
let ws_bfs ~max_states ~restrict ~symmetry ~por ~jobs lay ~found =
  let canon = Explore.active_canon ~symmetry (Packed.system lay) in
  match core ~max_states ~jobs ~canon ~restrict ~found ~por lay with
  | Space _ -> None
  | Witness (steps, p) -> (
      match canon with
      | None -> Some (steps, Packed.decode lay p)
      | Some c -> Some (Canon.realize c steps))

let bfs ?(max_states = Explore.default_cap) ?restrict ?(symmetry = false)
    ?(por = false) ~jobs sys ~found =
  validate_jobs jobs;
  if jobs = 1 then Explore.bfs ~max_states ?restrict ~symmetry ~por sys ~found
  else
    let lay = Packed.layout sys in
    let decoded f p = f (Packed.decode lay p) in
    ws_bfs ~max_states
      ~restrict:(match restrict with None -> fun _ -> true | Some f -> decoded f)
      ~symmetry ~por ~jobs lay ~found:(decoded found)

(* The deadlock search tests [Packed.is_deadlock] on the packed nodes. *)
let ws_deadlock ?(max_states = Explore.default_cap) ?(symmetry = false)
    ?(por = false) ~jobs sys =
  let lay = Packed.layout sys in
  ws_bfs ~max_states ~restrict:(fun _ -> true) ~symmetry ~por ~jobs lay
    ~found:(Packed.is_deadlock lay)

(* The jobs-invariance contract: the work-stealing search decides, and
   a positive verdict's witness is recomputed by the sequential engine
   with the same flags.  The raw witness is kept only when that
   re-search exceeds the budget. *)
let find ?max_states ?restrict ?symmetry ?por ~jobs sys ~found =
  let raw = bfs ?max_states ?restrict ?symmetry ?por ~jobs sys ~found in
  match raw with
  | Some _ when jobs > 1 -> (
      match Explore.bfs ?max_states ?restrict ?symmetry ?por sys ~found with
      | Some w -> Some w
      | None -> raw
      | exception Explore.Too_large _ -> raw)
  | _ -> raw

let find_deadlock ?max_states ?symmetry ?por ~jobs sys =
  validate_jobs jobs;
  if jobs = 1 then Explore.find_deadlock ?max_states ?symmetry ?por sys
  else
    match ws_deadlock ?max_states ?symmetry ?por ~jobs sys with
    | None -> None
    | Some raw -> (
        (* The sequential re-search counts the witness it returns; only a
           fallback to the raw one is counted here. *)
        let fallback () =
          Obs.M.Counter.incr Obs.deadlock_witnesses;
          Obs.T.instant "explore.deadlock_witness";
          Some raw
        in
        match Explore.find_deadlock ?max_states ?symmetry ?por sys with
        | Some w -> Some w
        | None -> fallback ()
        | exception Explore.Too_large _ -> fallback ())

let deadlock_free ?max_states ?symmetry ?por ~jobs sys =
  validate_jobs jobs;
  if jobs = 1 then Explore.deadlock_free ?max_states ?symmetry ?por sys
  else ws_deadlock ?max_states ?symmetry ?por ~jobs sys = None

(* --------------------- Lemma-1 extended space ---------------------- *)

let lemma1 ~seq ?(max_states = Explore.default_cap) ~jobs sys ~report =
  validate_jobs jobs;
  if jobs = 1 then seq ~max_states sys
  else
    match
      search_core ~max_states ~jobs (Explore.lemma1_ops sys ~report)
        (Explore.Lemma1.initial sys)
    with
    | Space _ -> Ok ()
    | Witness (steps, n) -> (
        let raw =
          { Explore.steps; cycle = Option.get (Explore.Lemma1.cycle sys n) }
        in
        match seq ~max_states sys with
        | Error cex -> Error cex
        | Ok () -> Error raw
        | exception Explore.Too_large _ -> Error raw)

let safe_and_deadlock_free ?max_states ~jobs sys =
  lemma1
    ~seq:(fun ~max_states -> Explore.safe_and_deadlock_free ~max_states)
    ?max_states ~jobs sys ~report:`All_cyclic

let safe ?max_states ~jobs sys =
  lemma1
    ~seq:(fun ~max_states -> Explore.safe ~max_states)
    ?max_states ~jobs sys ~report:`Complete_cyclic
