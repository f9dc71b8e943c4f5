open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type scheme =
  | Wait_die
  | Wound_wait
  | Detect of { period : float }
  | Timeout of { base : float; cap : float; max_retries : int }
  | Probabilistic

type config = {
  base : Net.config;
  restart_delay : float;
  max_time : float;
}

let default_config =
  { base = Net.default_config; restart_delay = 3.0; max_time = 100_000.0 }

let default_timeout = Timeout { base = 6.0; cap = 60.0; max_retries = 6 }

type stats = {
  commits : int;
  aborts : int;
  makespan : float;
  timed_out : bool;
}

type run = {
  stats : stats;
  aborts_by_txn : int array;
  committed_trace : Step.t list;
  stuck_waits : (int * Db.entity * int) list;
}

type event =
  | Arrive of Step.t * int  (** lock request reaches the manager *)
  | Complete of Step.t * int  (** step finishes executing *)
  | Restart of int * int  (** transaction, incarnation *)
  | Tick of float  (** detect-and-abort, every [period] *)
  | Crash of Db.site  (** site goes down and drops its lock tables *)
  | Deadline of Step.t * int  (** lock-wait timeout check *)

(* An entity is free ([holders = []]), held by one writer, or held in
   [shared] mode by readers (newest first).  Waiters carry (step,
   incarnation, enqueue time); the time feeds the lock wait-time
   histogram and survives the re-queue that happens when a grant replays
   the remaining waiters against the new holders. *)
type lock_state = {
  mutable holders : int list;
  mutable shared : bool;
  waiters : (Step.t * int * float) Queue.t;
}

let holds l j = List.memq j l.holders

(* The common case, a sole holder, releases without allocating. *)
let release l j =
  match l.holders with
  | [ h ] when h = j -> l.holders <- []
  | hs -> l.holders <- List.filter (fun h -> h <> j) hs

let obs_aborts = Ddlock_obs.Metrics.Counter.make "sim.aborts"
let obs_retries = Ddlock_obs.Metrics.Counter.make "sim.retries"
let obs_lock_timeouts = Ddlock_obs.Metrics.Counter.make "sim.lock_timeouts"
let obs_commits = Ddlock_obs.Metrics.Counter.make "sim.commits"
let obs_crashes = Ddlock_obs.Metrics.Counter.make "sim.site_crashes"
let obs_lock_wait = Ddlock_obs.Metrics.Histogram.make "sim.lock_wait_us"
let obs_queue_depth = Ddlock_obs.Metrics.Histogram.make "sim.queue_depth"

(* Sim time is abstract (float); wait times are recorded in micro-units
   so the log2 buckets resolve sub-unit waits. *)
let obs_wait ~since ~now =
  Ddlock_obs.Metrics.Histogram.observe obs_lock_wait
    (int_of_float ((now -. since) *. 1e6))

let pp_wait db ppf (w, e, h) =
  Format.fprintf ppf "T%d waits for %s held by T%d" (w + 1)
    (Db.entity_name db e) (h + 1)

let iter_ready_after tx ~executed ~started v f =
  let arcs = Transaction.given_arcs tx in
  let adj = Digraph.adj arcs in
  for k = Digraph.succ_start arcs v to Digraph.succ_stop arcs v - 1 do
    let u = adj.(k) in
    if
      (not (Bitset.mem started u))
      && Transaction.is_minimal_remaining tx executed u
    then f u
  done

module Wait_for = struct
  (* [arcs] is the n x n matrix, row [w] at [w * n].  The search marks
     nodes in [color] as [Topo.find_cycle] does (0 unvisited, 1 on the
     current path, 2 done) and keeps the current path in [path]. *)
  type t = { n : int; arcs : Bytes.t; color : int array; path : int array }

  let create n =
    {
      n;
      arcs = Bytes.make (n * n) '\000';
      color = Array.make n 0;
      path = Array.make n 0;
    }

  let clear t = Bytes.fill t.arcs 0 (t.n * t.n) '\000'
  let add t w h = Bytes.set t.arcs ((w * t.n) + h) '\001'
  let mem t w h = Bytes.get t.arcs ((w * t.n) + h) <> '\000'

  (* The largest node on the path from position [k] back to [v]: the
     cycle that an arc to [v] closes. *)
  let rec cycle_max t v k acc =
    let w = t.path.(k) in
    if w = v then Int.max acc w else cycle_max t v (k - 1) (Int.max acc w)

  (* [visit t u depth] puts [u] on the path at [depth] and returns the
     victim of the first cycle found below it, or -1; [scan] tries [u]'s
     successors from [v] up. *)
  let rec visit t u depth =
    t.color.(u) <- 1;
    t.path.(depth) <- u;
    let found = scan t u depth 0 in
    if found < 0 then t.color.(u) <- 2;
    found

  and scan t u depth v =
    if v = t.n then -1
    else if not (mem t u v) then scan t u depth (v + 1)
    else
      match t.color.(v) with
      | 0 ->
          let found = visit t v (depth + 1) in
          if found >= 0 then found else scan t u depth (v + 1)
      | 1 -> cycle_max t v depth (-1)
      | _ -> scan t u depth (v + 1)

  let victim t =
    Array.fill t.color 0 t.n 0;
    let rec from u =
      if u = t.n then None
      else if t.color.(u) <> 0 then from (u + 1)
      else
        let found = visit t u 0 in
        if found >= 0 then Some found else from (u + 1)
    in
    from 0
end

let simulate ?read scheme config faults rng sys =
  let n = System.size sys in
  let db = System.db sys in
  let ne = Db.entity_count db in
  let inj = Faults.injector faults in
  let net = Net.create config.base rng inj db ~txns:n in
  let locks =
    Array.init ne (fun _ ->
        { holders = []; shared = false; waiters = Queue.create () })
  in
  (* Without [read] every lock is exclusive; [read] itself is tabulated
     once per run. *)
  let is_read =
    match read with
    | None -> fun _ -> false
    | Some read ->
        let r =
          Array.init n (fun i ->
              Array.init
                (Transaction.node_count (System.txn sys i))
                (fun v -> read (Step.v i v)))
        in
        fun (s : Step.t) -> r.(s.txn).(s.node)
  in
  (* A request is granted at once when the entity is free, or when it is
     a Read, the entity is held shared and nobody queues before it. *)
  let compatible l (step : Step.t) =
    match l.holders with
    | [] -> true
    | _ :: _ -> l.shared && is_read step && Queue.is_empty l.waiters
  in
  let hold l (step : Step.t) =
    l.holders <- step.txn :: l.holders;
    l.shared <- is_read step
  in
  let executed =
    Array.init n (fun i -> Transaction.empty_prefix (System.txn sys i))
  in
  (* [executed_count.(i)] = [Bitset.cardinal executed.(i)] *)
  let executed_count = Array.make n 0 in
  let started =
    Array.init n (fun i -> Transaction.empty_prefix (System.txn sys i))
  in
  (* Requests processed by a lock manager in the current incarnation, for
     dedup of duplicated deliveries. *)
  let arrived =
    Array.init n (fun i -> Transaction.empty_prefix (System.txn sys i))
  in
  let incarnation = Array.make n 0 in
  let committed = Array.make n false in
  (* Timeout-abort count per transaction: drives the exponential
     backoff. *)
  let attempts = Array.make n 0 in
  let aborts_by_txn = Array.make n 0 in
  (* The priority order of the prevention schemes.  Priorities are
     constant, so [beats] is timestamp order (a lower index is older),
     except under [Probabilistic], where every incarnation draws a fresh
     uniform priority.  Ties break by index, so the order is strict. *)
  let prio =
    match scheme with
    | Some Probabilistic -> Array.init n (fun _ -> Random.State.float rng 1.0)
    | None | Some (Wait_die | Wound_wait | Detect _ | Timeout _) ->
        Array.make n 0.0
  in
  let beats r h = prio.(r) > prio.(h) || (prio.(r) = prio.(h) && r < h) in
  let rec beats_all r = function
    | [] -> true
    | h :: hs -> beats r h && beats_all r hs
  in
  let rec first_beaten r = function
    | [] -> None
    | h :: hs -> if beats r h then Some h else first_beaten r hs
  in
  let events : event Pqueue.t = Pqueue.create () in
  let now = ref 0.0 in
  let commits = ref 0 and aborts = ref 0 and makespan = ref 0.0 in
  (* (time, step, inc) completions, newest first *)
  let trace = ref [] in
  let commit j =
    committed.(j) <- true;
    incr commits;
    Ddlock_obs.Metrics.Counter.incr obs_commits;
    makespan := !now
  in
  let entity_of (step : Step.t) =
    (Transaction.node (System.txn sys step.txn) step.node).Node.entity
  in
  (* Exponential backoff with jitter: full window after [attempts]
     timeouts, growth capped at [max_retries] doublings and [cap]. *)
  let backoff_window base cap max_retries j =
    let k = Int.min attempts.(j) max_retries in
    Float.min cap (base *. (2.0 ** float_of_int k))
  in
  let jittered w = w *. (0.5 +. Random.State.float rng 1.0) in
  let restart_backoff j =
    match scheme with
    | Some (Timeout { base; cap; max_retries }) ->
        jittered (backoff_window base cap max_retries j)
    | None | Some (Wait_die | Wound_wait | Detect _ | Probabilistic) -> 0.0
  in
  (* The grant message travels back from the manager, subject to faults. *)
  let push_grant (w : Step.t) winc e =
    Net.execute net events ~now:!now w.Step.txn e (Complete (w, winc))
  in
  let rec start (step : Step.t) =
    let nd = Transaction.node (System.txn sys step.txn) step.node in
    Bitset.set started.(step.txn) step.node;
    let inc = incarnation.(step.txn) in
    match nd.Node.op with
    | Node.Unlock ->
        Net.execute net events ~now:!now step.txn nd.entity
          (Complete (step, inc))
    | Node.Lock ->
        Net.request net events ~now:!now nd.entity (Arrive (step, inc))
  and start_ready i =
    if not committed.(i) then begin
      let tx = System.txn sys i in
      for v = 0 to Transaction.node_count tx - 1 do
        if
          (not (Bitset.mem started.(i) v))
          && Transaction.is_minimal_remaining tx executed.(i) v
        then start (Step.v i v)
      done
    end
  in
  let start_node = Array.init n (fun i v -> start (Step.v i v)) in
  (* Empty [l]'s queue; its still-valid entries, in queue order. *)
  let take_valid l =
    let rec drain acc =
      match Queue.take_opt l.waiters with
      | None -> List.rev acc
      | Some ((w, winc, _) as entry : Step.t * int * float) ->
          if winc = incarnation.(w.Step.txn) && not committed.(w.Step.txn)
          then drain (entry :: acc)
          else drain acc
    in
    drain []
  in
  (* Called when holders leave [e]: take the still-valid waiters off the
     queue and replay them in order.  Compatible ones are granted (a
     writer, or a run of readers, at the head); the rest meet the
     scheme's rule against the new holders, which must be re-applied
     whenever the holders change, otherwise forbidden wait directions
     (e.g. younger-waits-on-older under wait-die) leak in via the queue
     and can re-create deadlocks. *)
  let rec grant e =
    let l = locks.(e) in
    List.iter
      (fun (w, winc, since) ->
        (* an earlier replay may have aborted [w] meanwhile *)
        if winc = incarnation.(w.Step.txn) then
          if compatible l w then begin
            obs_wait ~since ~now:!now;
            hold l w;
            push_grant w winc e
          end
          else on_lock_conflict w winc ~since l.holders)
      (take_valid l)

  and abort j =
    incr aborts;
    Ddlock_obs.Metrics.Counter.incr obs_aborts;
    aborts_by_txn.(j) <- aborts_by_txn.(j) + 1;
    incarnation.(j) <- incarnation.(j) + 1;
    (match scheme with
    | Some Probabilistic ->
        (* Redraw: a repeatedly-wounded transaction eventually draws the
           top priority, which bounds starvation with probability 1. *)
        prio.(j) <- Random.State.float rng 1.0
    | None | Some (Wait_die | Wound_wait | Detect _ | Timeout _) -> ());
    executed.(j) <- Transaction.empty_prefix (System.txn sys j);
    executed_count.(j) <- 0;
    started.(j) <- Transaction.empty_prefix (System.txn sys j);
    arrived.(j) <- Transaction.empty_prefix (System.txn sys j);
    (* Release everything j holds; stale queue entries and in-flight
       events die via the incarnation check. *)
    for e = 0 to ne - 1 do
      if holds locks.(e) j then begin
        release locks.(e) j;
        grant e
      end
    done;
    Pqueue.push events
      (!now +. config.restart_delay +. restart_backoff j)
      (Restart (j, incarnation.(j)))

  and on_lock_conflict (step : Step.t) inc ~since holders =
    let r = step.Step.txn in
    match scheme with
    | None | Some (Detect _) -> wait step inc ~since
    | Some (Timeout { base; cap; max_retries }) ->
        wait step inc ~since;
        let w = jittered (backoff_window base cap max_retries r) in
        Pqueue.push events (!now +. w) (Deadline (step, inc))
    | Some Wait_die ->
        if beats_all r holders then wait step inc ~since else abort r
    | Some (Wound_wait | Probabilistic) -> (
        (* Preemption: a requester that beats a holder wounds it and
           takes over; otherwise it waits.  Wait arcs then always ascend
           the priority order, so the wait-for graph stays acyclic.
           Probabilistic is wound-wait under random priorities [O&B,
           arXiv:1010.4411]. *)
        match first_beaten r holders with
        | None -> wait step inc ~since
        | Some h ->
            abort h;
            let l = locks.(entity_of step) in
            (* abort released the entity; it may have been re-granted to
               a queued waiter that [r] also beats.  Re-apply the rule
               against the new holders: queueing unconditionally would
               let [r] wait behind a transaction it beats (a descending
               wait arc), and one such arc is enough to close a wait-for
               cycle. *)
            if compatible l step then begin
              hold l step;
              push_grant step inc (entity_of step)
            end
            else on_lock_conflict step inc ~since l.holders)
  and wait (step : Step.t) inc ~since =
    Queue.push (step, inc, since) locks.(entity_of step).waiters
  in
  (* A site crash drops its lock tables: holders of its entities abort
     (their in-flight grants die with the incarnation bump) and queued
     waiters are lost — still-valid ones retransmit their requests, which
     the fault layer defers past the crash window. *)
  let on_crash s =
    Ddlock_obs.Metrics.Counter.incr obs_crashes;
    for e = 0 to ne - 1 do
      if Db.site_of db e = s then begin
        let l = locks.(e) in
        List.iter
          (fun ((w, winc, _) : Step.t * int * float) ->
            Bitset.clear arrived.(w.Step.txn) w.Step.node;
            Pqueue.push events
              (Faults.deliver inj ~site:s ~now:!now
                 ~transit:(Faults.plan inj).Faults.retransmit)
              (Arrive (w, winc)))
          (take_valid l);
        List.iter
          (fun h -> if holds l h && not committed.(h) then abort h)
          l.holders
      end
    done
  in
  (* The (waiter, entity, holder) arcs of currently-valid waiters, by
     entity and then queue order. *)
  let wait_for_arcs () =
    let arcs = ref [] in
    Array.iteri
      (fun e l ->
        Queue.iter
          (fun ((w, winc, _) : Step.t * int * float) ->
            if winc = incarnation.(w.Step.txn) then
              List.iter
                (fun h -> arcs := (w.Step.txn, e, h) :: !arcs)
                l.holders)
          l.waiters)
      locks;
    List.rev !arcs
  in
  (* A transaction with no steps commits at once. *)
  for i = 0 to n - 1 do
    if Transaction.node_count (System.txn sys i) = 0 then commit i
    else start_ready i
  done;
  (match scheme with
  | Some (Detect { period }) -> Pqueue.push events period (Tick period)
  | None | Some (Wait_die | Wound_wait | Timeout _ | Probabilistic) -> ());
  (* Without a scheme nothing can abort, so a crash window is only the
     unavailability that [Faults.deliver] already models. *)
  if scheme <> None then
    List.iter
      (fun (w : Faults.window) ->
        Pqueue.push events w.Faults.from_t (Crash w.Faults.site))
      faults.Faults.crashes;
  let waits =
    match scheme with
    | Some (Detect _) -> Wait_for.create n
    | None | Some (Wait_die | Wound_wait | Timeout _ | Probabilistic) ->
        Wait_for.create 0
  in
  let rec loop () =
    if !commits < n && not (Pqueue.is_empty events) then
      let t = Pqueue.min_key events in
      if t > config.max_time then ()
      else begin
        let ev = Pqueue.take events in
        now := t;
        (match ev with
        | Restart (j, inc) ->
            if inc = incarnation.(j) && not committed.(j) then begin
              Ddlock_obs.Metrics.Counter.incr obs_retries;
              start_ready j
            end
        | Crash s -> on_crash s
        | Deadline (step, inc) ->
            (* Still waiting (not granted, not executed) in the same
               incarnation: time out, abort, restart with backoff. *)
            let j = step.Step.txn in
            if
              inc = incarnation.(j)
              && (not committed.(j))
              && (not (Bitset.mem executed.(j) step.Step.node))
              && not (holds locks.(entity_of step) j)
            then begin
              attempts.(j) <- attempts.(j) + 1;
              Ddlock_obs.Metrics.Counter.incr obs_lock_timeouts;
              abort j
            end
        | Tick period ->
            Wait_for.clear waits;
            Array.iter
              (fun l ->
                match l.holders with
                | [] -> ()
                | holders ->
                    Queue.iter
                      (fun ((w, winc, _) : Step.t * int * float) ->
                        if winc = incarnation.(w.Step.txn) then
                          List.iter (Wait_for.add waits w.Step.txn) holders)
                      l.waiters)
              locks;
            (* Abort the youngest (largest timestamp) on the cycle. *)
            Option.iter abort (Wait_for.victim waits);
            if !commits < n then
              Pqueue.push events (t +. period) (Tick period)
        | Arrive (step, inc) ->
            if
              inc = incarnation.(step.Step.txn)
              && not (Bitset.mem arrived.(step.Step.txn) step.Step.node)
            then begin
              Bitset.set arrived.(step.Step.txn) step.Step.node;
              let l = locks.(entity_of step) in
              if compatible l step then begin
                hold l step;
                push_grant step inc (entity_of step)
              end
              else begin
                on_lock_conflict step inc ~since:t l.holders;
                Ddlock_obs.Metrics.Histogram.observe obs_queue_depth
                  (Queue.length l.waiters)
              end
            end
        | Complete (step, inc) ->
            let j = step.Step.txn in
            if inc = incarnation.(j) then begin
              trace := (t, step, inc) :: !trace;
              Bitset.set executed.(j) step.node;
              executed_count.(j) <- executed_count.(j) + 1;
              let tx = System.txn sys j in
              let nd = Transaction.node tx step.node in
              (match nd.Node.op with
              | Node.Unlock ->
                  release locks.(nd.entity) j;
                  grant nd.entity
              | Node.Lock -> ());
              if executed_count.(j) = Transaction.node_count tx then commit j
              else
                (* Every node that was minimal-remaining before [step]
                   has started, so the new ones are among its
                   successors. *)
                iter_ready_after tx ~executed:executed.(j)
                  ~started:started.(j) step.node start_node.(j)
            end);
        loop ()
      end
  in
  loop ();
  let committed_trace =
    List.rev_map
      (fun (_, s, _) -> s)
      (List.filter
         (fun (_, (s : Step.t), inc) ->
           committed.(s.txn) && inc = incarnation.(s.txn))
         !trace)
  in
  let run =
    {
      stats =
        {
          commits = !commits;
          aborts = !aborts;
          makespan = !makespan;
          timed_out = !commits < n;
        };
      aborts_by_txn;
      committed_trace;
      stuck_waits = (if !commits < n then wait_for_arcs () else []);
    }
  in
  (run, !trace, !now)

let run ~scheme ?(config = default_config) ?(faults = Faults.none) rng sys =
  let r, _, _ = simulate (Some scheme) config faults rng sys in
  r

type batch_stats = {
  runs : int;
  total_aborts : int;
  max_aborts_single_txn : int;
  timeouts : int;
  illegal_traces : int;
  non_serializable_traces : int;
  mean_makespan : float;
}

let batch ~scheme ?config ?faults rng sys ~runs =
  let aborts = ref 0 and timeouts = ref 0 and max_single = ref 0 in
  let illegal = ref 0 and bad = ref 0 in
  let total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ~scheme ?config ?faults rng sys in
    aborts := !aborts + r.stats.aborts;
    Array.iter (fun a -> if a > !max_single then max_single := a) r.aborts_by_txn;
    if r.stats.timed_out then incr timeouts
    else begin
      incr completed;
      total := !total +. r.stats.makespan;
      if not (Schedule.is_complete sys r.committed_trace) then incr illegal;
      if not (Dgraph.is_serializable sys r.committed_trace) then incr bad
    end
  done;
  {
    runs;
    total_aborts = !aborts;
    max_aborts_single_txn = !max_single;
    timeouts = !timeouts;
    illegal_traces = !illegal;
    non_serializable_traces = !bad;
    mean_makespan =
      (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_batch ppf s =
  Format.fprintf ppf
    "%d runs: %d aborts (max %d per txn), %d timeouts, %d illegal, %d \
     non-serializable, mean makespan %.2f"
    s.runs s.total_aborts s.max_aborts_single_txn s.timeouts s.illegal_traces
    s.non_serializable_traces s.mean_makespan
