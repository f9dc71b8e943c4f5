open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type term = Init of Db.entity | App of string * term list

let rec pp_term db ppf = function
  | Init e -> Format.fprintf ppf "%s₀" (Db.entity_name db e)
  | App (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (pp_term db))
        args

let term_equal (a : term) b = a = b

(* Action-extended transaction: the skeleton plus an explicit extended
   partial order over skeleton nodes (ids kept) and action nodes
   (appended ids).  [action_entity] maps extended ids to entities. *)
type atxn = {
  skeleton : Transaction.t;
  n_skeleton : int;
  action_entity : Db.entity array; (* indexed by id - n_skeleton *)
  closure : Closure.t; (* of the extended order *)
}

let skeleton a = a.skeleton
let action_count a = Array.length a.action_entity

let with_actions rng t ~per_entity =
  if per_entity < 1 then invalid_arg "Herbrand.with_actions: per_entity < 1";
  let db = Transaction.db t in
  let n = Transaction.node_count t in
  let entities = Transaction.entities t in
  let n_actions = per_entity * List.length entities in
  let action_entity = Array.make n_actions (-1) in
  (* Per-site sequences of skeleton nodes, in skeleton order. *)
  let site_seq = Hashtbl.create 7 in
  Array.iter
    (fun v ->
      let s = Db.site_of db (Transaction.node t v).Node.entity in
      Hashtbl.replace site_seq s
        (v :: (try Hashtbl.find site_seq s with Not_found -> [])))
    (Transaction.order t);
  Hashtbl.iter (fun s l -> Hashtbl.replace site_seq s (List.rev l)) (Hashtbl.copy site_seq);
  (* Insert actions: for each entity, [per_entity] action ids woven into
     its site's sequence at random positions between Lx and Ux. *)
  let next_id = ref n in
  let insert_actions seq =
    (* seq: skeleton node list of one site (in order).  Returns the new
       sequence with action ids spliced in. *)
    let arr = ref (List.map (fun v -> `Skel v) seq) in
    List.iter
      (fun e ->
        let lx = Transaction.lock_node_exn t e
        and ux = Transaction.unlock_node_exn t e in
        if List.exists (fun x -> x = `Skel lx) !arr then
          for _ = 1 to per_entity do
            let id = !next_id in
            incr next_id;
            action_entity.(id - n) <- e;
            (* Legal positions: strictly after lx, before or at ux. *)
            let rec positions i = function
              | [] -> []
              | x :: rest ->
                  let tail = positions (i + 1) rest in
                  if x = `Skel ux then i :: tail
                  else if
                    List.exists (fun y -> y = `Skel lx)
                      (List.filteri (fun j _ -> j < i) !arr)
                    && not
                         (List.exists (fun y -> y = `Skel ux)
                            (List.filteri (fun j _ -> j < i) !arr))
                  then i :: tail
                  else tail
            in
            let ps = positions 0 !arr in
            let pos = List.nth ps (Random.State.int rng (List.length ps)) in
            arr :=
              List.concat
                (List.mapi
                   (fun j x -> if j = pos then [ `Act id; x ] else [ x ])
                   !arr)
          done)
      entities;
    !arr
  in
  let arcs = ref (Digraph.edges (Transaction.given_arcs t)) in
  Hashtbl.iter
    (fun _s seq ->
      let woven = insert_actions seq in
      let ids =
        List.map (function `Skel v -> v | `Act id -> id) woven
      in
      let rec chain = function
        | a :: (b :: _ as rest) ->
            arcs := (a, b) :: !arcs;
            chain rest
        | _ -> ()
      in
      chain ids)
    site_seq;
  let total = n + n_actions in
  let g = Digraph.create total !arcs in
  let closure =
    match Topo.order g with
    | Some order -> Closure.of_order g order
    | None -> assert false
  in
  { skeleton = t; n_skeleton = n; action_entity; closure }

type asystem = atxn array

let system sys =
  System.create (List.map (fun a -> a.skeleton) (Array.to_list sys))

(* Action ids of [a] on entity [e], in extended order. *)
let actions_on a e =
  let ids = ref [] in
  Array.iteri
    (fun j e' -> if e' = e then ids := (a.n_skeleton + j) :: !ids)
    a.action_entity;
  List.sort
    (fun u v -> if Closure.reaches a.closure u v then -1 else 1)
    !ids

(* Strict action predecessors of action id v. *)
let action_preds a v =
  let preds = ref [] in
  Array.iteri
    (fun j _ ->
      let u = a.n_skeleton + j in
      if u <> v && Closure.reaches a.closure u v then preds := u :: !preds)
    a.action_entity;
  List.sort compare !preds

let eval sys steps =
  let lock_sys = system sys in
  let db = System.db lock_sys in
  let ne = Db.entity_count db in
  (match Schedule.check lock_sys steps with
  | Ok _ -> ()
  | Error v ->
      invalid_arg
        (Format.asprintf "Herbrand.eval: illegal schedule: %a"
           (Schedule.pp_violation lock_sys) v));
  let cur = Array.init ne (fun e -> Init e) in
  (* snapshot.(i) : entity -> term option, taken at Lock time. *)
  let snapshot = Array.init (Array.length sys) (fun _ -> Array.make ne None) in
  (* Memoized read-values t_v of actions, per transaction. *)
  let tval : (int * int, term) Hashtbl.t = Hashtbl.create 64 in
  let rec t_value i v =
    match Hashtbl.find_opt tval (i, v) with
    | Some t -> t
    | None ->
        let a = sys.(i) in
        let e = a.action_entity.(v - a.n_skeleton) in
        (* Value of e right before action v: the snapshot at Lock time
           updated by this transaction's earlier actions on e. *)
        let earlier =
          List.filter
            (fun u -> u <> v && Closure.reaches a.closure u v)
            (actions_on a e)
        in
        let base =
          match snapshot.(i).(e) with Some t -> t | None -> assert false
        in
        let t =
          List.fold_left (fun _acc u -> written_value i u) base earlier
        in
        Hashtbl.replace tval (i, v) t;
        t
  and written_value i v =
    (* x <- f_v(t_u1, ..., t_uk, t_v) for action predecessors u of v. *)
    let a = sys.(i) in
    let args =
      List.map (t_value i) (action_preds a v) @ [ t_value i v ]
    in
    App (Printf.sprintf "f%d_%d" (i + 1) v, args)
  in
  List.iter
    (fun (s : Step.t) ->
      let a = sys.(s.txn) in
      let nd = Transaction.node a.skeleton s.node in
      match nd.Node.op with
      | Node.Lock -> snapshot.(s.txn).(nd.entity) <- Some cur.(nd.entity)
      | Node.Unlock ->
          (* Apply this transaction's chain on the entity. *)
          (match List.rev (actions_on a nd.entity) with
          | last :: _ -> cur.(nd.entity) <- written_value s.txn last
          | [] -> ()))
    steps;
  cur

let equivalent sys s1 s2 =
  let f1 = eval sys s1 and f2 = eval sys s2 in
  Array.for_all2 term_equal f1 f2

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let serializable sys steps =
  let lock_sys = system sys in
  let final = eval sys steps in
  List.exists
    (fun order ->
      let serial = Schedule.serial lock_sys order in
      Array.for_all2 term_equal final (eval sys serial))
    (permutations (List.init (Array.length sys) Fun.id))
