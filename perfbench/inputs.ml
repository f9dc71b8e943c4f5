(* Seeded inputs of every workload.  The same seed always yields the
   same list; the program under test only ever sees the rendered
   sources (or, for the simulator, the generated systems and plans). *)

open Ddlock
open Model

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

let source sys =
  Parser.to_source (System.db sys)
    (List.mapi
       (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
       (Array.to_list (System.txns sys)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Cyclomatic number of the interaction graph: the number of
   independent cycles, which bounds the Theorem-4 candidate count by
   roughly 2^mu times the cycle length. *)
let cyclomatic sys =
  let g = System.interaction_graph sys in
  Graph.Ungraph.edge_count g - Graph.Ungraph.node_count g
  + List.length (Graph.Ungraph.components g)

(* ------------------------------------------------------------------ *)
(* analyze-search                                                      *)
(* ------------------------------------------------------------------ *)

type expect =
  | Fails_theorem4  (** any verdict but [Gave_up]; witnesses replayed *)
  | Known of { name : string; deadlocks : bool }  (** a paper fixture *)
  | Certified  (** safe ∧ deadlock-free, exit status 0 *)

type analyze_input = { src : string; expect : expect }

let fixtures () =
  let fig6 n = System.copies (Workload.Figures.fig6_txn ()) n in
  [
    ("fig2", Workload.Figures.fig2 (), true);
    ("fig6x2", fig6 2, false);
    ("fig6x3", fig6 3, true);
    ("philosophers3", Workload.Gentx.dining_philosophers 3, true);
    ("philosophers4", Workload.Gentx.dining_philosophers 4, true);
    ("philosophers5", Workload.Gentx.dining_philosophers 5, true);
  ]
  |> List.map (fun (name, sys, deadlocks) ->
         { src = source sys; expect = Known { name; deadlocks } })
  |> Array.of_list

(* Upper bound on the reachable state space: the product of each
   transaction's prefix count. *)
let state_bound sys =
  Array.fold_left
    (fun acc t -> acc * Seq.fold_left (fun n _ -> n + 1) 0 (Transaction.prefixes t))
    1 (System.txns sys)

(* Systems that fail Theorem 4, so the bounded search runs: zipf
   hotspots and small random systems.  A cap on the state-space bound
   keeps every input to a few ms and keeps the tail, and with it p99
   and peak memory, the same from seed to seed. *)
let max_state_bound = 300

let rec failing_system rng k =
  let sys =
    match k mod 4 with
    | 0 -> Workload.Gentx.zipf_system rng ~sites:2 ~entities:4 ~txns:3 ~theta:0.8
    | 1 -> Workload.Gentx.zipf_system rng ~sites:2 ~entities:6 ~txns:3 ~theta:0.8
    | 2 -> Workload.Gentx.small_random_system rng ~txns:3
    | _ -> Workload.Gentx.small_random_system rng ~txns:4
  in
  if state_bound sys > max_state_bound || Safety.Many.safe_and_deadlock_free sys
  then failing_system rng k
  else sys

(* A pool of inputs; one in ten is a paper fixture. *)
let search_pool ~seed ~pool =
  let r = rng seed 1 in
  let fx = fixtures () in
  Array.init pool (fun k ->
      if k mod 10 = 0 then fx.(k / 10 mod Array.length fx)
      else { src = source (failing_system r k); expect = Fails_theorem4 })

(* ------------------------------------------------------------------ *)
(* repaired systems (checked after analyze-search)                     *)
(* ------------------------------------------------------------------ *)

(* 5-8 total-order transactions rewritten to a global lock order, which
   Theorem 4 must certify.  The interaction graph keeps 4-5 independent
   cycles, so Theorem 4 has candidates to examine. *)
let rec certified_system rng =
  let txns = 5 + Random.State.int rng 4 in
  let db = Workload.Gentx.random_db ~sites:3 ~entities:txns in
  let sys =
    Workload.Gentx.random_system rng db ~txns
      ~entities_per_txn:(2 + Random.State.int rng 2)
      ~density:1.0
  in
  let mu = cyclomatic sys in
  if mu < 4 || mu > 5 then certified_system rng
  else
    match Analysis.repair_with_global_order sys with
    | Some s -> s
    | None -> certified_system rng

let certified_pool ~seed ~pool =
  let r = rng seed 2 in
  Array.init pool (fun _ ->
      { src = source (certified_system r); expect = Certified })

(* ------------------------------------------------------------------ *)
(* serve (traced run of analyze-search)                                *)
(* ------------------------------------------------------------------ *)

(* The request mix follows the repository's own daemon benchmark,
   `bench serve` (EXPERIMENTS E23).  Hits are renderings of the three
   shapes of its k-copies stream, which the daemon's canonical cache key
   answers from the cache after their first sighting; their share is
   that stream's 90% hit-rate floor.  Misses are fresh systems of its
   zipf-hotspot workload (2 sites, 5 entities, 4 transactions, theta 0,
   0.8 or 1.5), always new to the cache.  Neither source measures real
   traffic: the mix is a stated choice, not an observed one. *)
let serve_shapes () =
  let ring k n = System.copies (Workload.Gentx.guard_ring k) n in
  [| ring 3 2; ring 3 3; ring 4 2 |]

let serve_hit_share = 0.9
let serve_thetas = [| 0.0; 0.8; 1.5 |]

(* E23's theta = 0 systems took 23 ms.  A cap on the state-space bound
   keeps a miss to 1-10 ms (about 3 ms typical), so that the per-layer
   means of the misses reflect typical analyses rather than a rare
   outsized one. *)
let serve_max_state_bound = 1000

let rec fresh_system r theta =
  let sys = Workload.Gentx.zipf_system r ~sites:2 ~entities:5 ~txns:4 ~theta in
  if state_bound sys > serve_max_state_bound then fresh_system r theta else sys

(* The requests of one round: hits cycle through the shapes (the daemon
   keys its cache on the parsed system, so each is parsed and looked up
   like any request); every round draws its own misses, so none of them
   is ever served from the cache. *)
let serve_requests ~seed ~round ~ops =
  let r = rng seed (3000 + round) in
  let shapes = Array.map source (serve_shapes ()) in
  Array.init ops (fun k ->
      if Random.State.float r 1.0 < serve_hit_share then shapes.(k mod Array.length shapes)
      else source (fresh_system r serve_thetas.(k mod Array.length serve_thetas)))

(* Throwaway requests for warm-up: distinct from every timed request,
   so they leave no cache entry the timed phase could hit. *)
let serve_warmup ~n =
  let r = rng 0 4 in
  Array.init n (fun _ ->
      source (Workload.Gentx.small_random_system ~sites:3 ~entities:5 r ~txns:2))

(* ------------------------------------------------------------------ *)
(* sim-matrix                                                          *)
(* ------------------------------------------------------------------ *)

(* A cell of the matrix; its fault plan comes with each draw. *)
type cell = {
  family : int;  (** index into [families] *)
  intensity_ix : int;  (** index into [intensities] *)
  scheme_name : string;
  scheme : Sim.Recovery.scheme;
}

let horizon = 40.0
let intensities = [| 0.0; 0.4; 0.8 |]
let families = [| "ring"; "tpcc"; "partial-replication"; "zipf-hotspot" |]

(* The 5 schemes x 4 families x 3 fault intensities of the scenario
   matrix. *)
let sim_cells =
  Array.of_list
    (List.concat_map
       (fun family ->
         List.concat_map
           (fun intensity_ix ->
             List.map
               (fun (scheme_name, scheme) -> { family; intensity_ix; scheme_name; scheme })
               Sim.Chaos.default_schemes)
           [ 0; 1; 2 ])
       [ 0; 1; 2; 3 ])

let family_system r f =
  match f with
  | 0 -> System.copies (Workload.Gentx.guard_ring 3) 2
  | 1 -> Workload.Gentx.tpcc_system r ~warehouses:2 ~txns:4 ~theta:1.2
  | 2 ->
      let rep = Workload.Gentx.replicated_db ~sites:3 ~entities:4 ~replication:2 in
      Workload.Gentx.replicated_system r rep ~txns:3 ~entities_per_txn:2
  | _ -> Workload.Gentx.zipf_system r ~sites:2 ~entities:4 ~txns:4 ~theta:1.2

(* One draw: a system of every family and a fault plan for every
   (family, intensity), so all five schemes face the same faults. *)
type draw = { systems : System.t array; plans : Sim.Faults.plan array array }

(* A sim input: one cell of the matrix on one draw.  A pool of
   60 cells x [draws] draws averages over many systems and plans rather
   than resting on the few a seed happens to draw. *)
type sim_input = { cell : cell; draw : draw; key : int }

let sim_pool ~seed ~draws =
  Array.init draws (fun i ->
      let r = rng seed (20_000 + i) in
      let systems = Array.init (Array.length families) (family_system r) in
      let plans =
        Array.map
          (fun sys ->
            Array.map
              (fun intensity -> Sim.Faults.random r (System.db sys) ~intensity ~horizon)
              intensities)
          systems
      in
      { systems; plans })
  |> Array.mapi (fun i draw ->
         Array.mapi (fun k cell -> { cell; draw; key = (i * Array.length sim_cells) + k }) sim_cells)
  |> Array.to_list |> Array.concat

(* A finite commit budget, as in the scenario matrix. *)
let sim_config = { Sim.Recovery.default_config with Sim.Recovery.max_time = 240.0 }
