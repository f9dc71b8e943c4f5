type step = L of string | U of string

let node_of_step db = function
  | L name -> Node.lock (Db.find_entity_exn db name)
  | U name -> Node.unlock (Db.find_entity_exn db name)

(* Node ids in order of first mention, keyed by [2·entity + op] (Lock
   0, Unlock 1).  Every mentioned entity then gets its missing node and
   the arc [Lx < Ux], in ascending entity order. *)
let collect db ~chains ~arcs =
  let id_by_key = Array.make (2 * Db.entity_count db) (-1) in
  let labels = ref [] in
  let count = ref 0 in
  let id_of_key k =
    if id_by_key.(k) < 0 then begin
      id_by_key.(k) <- !count;
      incr count;
      let e = k / 2 in
      labels := (if k land 1 = 0 then Node.lock e else Node.unlock e) :: !labels
    end;
    id_by_key.(k)
  in
  let id_of = function
    | L name -> id_of_key (2 * Db.find_entity_exn db name)
    | U name -> id_of_key ((2 * Db.find_entity_exn db name) + 1)
  in
  let arc_list = ref [] in
  List.iter
    (fun chain ->
      let ids = List.map id_of chain in
      let rec link = function
        | a :: (b :: _ as rest) ->
            arc_list := (a, b) :: !arc_list;
            link rest
        | _ -> ()
      in
      link ids)
    chains;
  List.iter (fun (a, b) -> arc_list := (id_of a, id_of b) :: !arc_list) arcs;
  for e = 0 to Db.entity_count db - 1 do
    if id_by_key.(2 * e) >= 0 || id_by_key.((2 * e) + 1) >= 0 then begin
      let l = id_of_key (2 * e) in
      let u = id_of_key ((2 * e) + 1) in
      arc_list := (l, u) :: !arc_list
    end
  done;
  (Array.of_list (List.rev !labels), !arc_list)

let transaction db ?(chains = []) ?(arcs = []) () =
  let labels, arc_list = collect db ~chains ~arcs in
  Transaction.make db labels arc_list

let transaction_exn db ?(chains = []) ?(arcs = []) () =
  let labels, arc_list = collect db ~chains ~arcs in
  Transaction.make_exn db labels arc_list

let total db steps =
  Transaction.of_total_order db (List.map (node_of_step db) steps)

let total_exn db steps =
  match total db steps with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Builder.total_exn: "
        ^ String.concat "; "
            (List.map (Transaction.error_to_string db) es))

let two_phase_chain db names =
  total_exn db (List.map (fun n -> L n) names @ List.map (fun n -> U n) names)
