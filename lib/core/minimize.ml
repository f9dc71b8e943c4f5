open Ddlock_model
open Ddlock_schedule

type result = {
  core : System.t;
  kept_txns : int list;
  dropped_entities : (int * Db.entity) list;
}

type outcome = Core of result | Deadlock_free | Gave_up of int

let obs_candidates = Ddlock_obs.Metrics.Counter.make "minimize.candidates"
let obs_shrunk = Ddlock_obs.Metrics.Counter.make "minimize.shrink_steps"

(* Deadlockability: [Error n] means "unknown" (the budget ran out after
   [n] states), and a candidate move with that answer is rejected.
   Probes are verdict-only ({!Explore.deadlock_free}). *)
let deadlocks ?max_states sys =
  Ddlock_obs.Metrics.Counter.incr obs_candidates;
  match Explore.deadlock_free ?max_states sys with
  | free -> Ok (not free)
  | exception Explore.Too_large n -> Error n

let deadlock_core ?max_states sys =
  Ddlock_obs.Trace.span "minimize.deadlock_core" @@ fun () ->
  match deadlocks ?max_states sys with
  | Error n -> Gave_up n
  | Ok false -> Deadlock_free
  | Ok true ->
      (* State: list of (original index, transaction). *)
      let current = ref (Array.to_list (Array.mapi (fun i t -> (i, t)) (System.txns sys))) in
      let dropped = ref [] in
      let mk txns = System.create (List.map snd txns) in
      let still_deadlocks txns =
        List.length txns >= 2
        && deadlocks ?max_states (mk txns) = Ok true
      in
      let changed = ref true in
      while !changed do
        changed := false;
        (* Try dropping whole transactions. *)
        let rec drop_txn kept = function
          | [] -> ()
          | (i, t) :: rest ->
              let candidate = List.rev_append kept rest in
              if still_deadlocks candidate then begin
                Ddlock_obs.Metrics.Counter.incr obs_shrunk;
                current := candidate;
                changed := true
              end
              else drop_txn ((i, t) :: kept) rest
        in
        drop_txn [] !current;
        (* Try dropping single entity accesses. *)
        let rec drop_ent kept = function
          | [] -> ()
          | (i, t) :: rest ->
              let tried =
                List.find_map
                  (fun x ->
                    let t' = Transaction.drop_entity t x in
                    let candidate = List.rev_append kept ((i, t') :: rest) in
                    if still_deadlocks candidate then Some (x, candidate)
                    else None)
                  (Transaction.entities t)
              in
              (match tried with
              | Some (x, candidate) ->
                  Ddlock_obs.Metrics.Counter.incr obs_shrunk;
                  dropped := (i, x) :: !dropped;
                  current := candidate;
                  changed := true
              | None -> drop_ent ((i, t) :: kept) rest)
        in
        if not !changed then drop_ent [] !current
      done;
      Core
        {
          core = mk !current;
          kept_txns = List.map fst !current;
          dropped_entities = List.rev !dropped;
        }
