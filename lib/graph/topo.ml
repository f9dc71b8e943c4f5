module IntSet = Set.Make (Int)

let in_degrees g =
  Array.init (Digraph.node_count g) (fun u -> Digraph.in_degree g u)

(* Pushes [u] on the binary min-heap of [size] ids at [a.(heap ..)]. *)
let[@inline] push a heap size u =
  let i = ref size in
  while !i > 0 && a.(heap + ((!i - 1) / 2)) > u do
    a.(heap + !i) <- a.(heap + ((!i - 1) / 2));
    i := (!i - 1) / 2
  done;
  a.(heap + !i) <- u

(* Pops the smallest of the heap's [size] ids. *)
let[@inline] pop a heap size =
  let top = a.(heap) and size = size - 1 in
  let x = a.(heap + size) and i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < size && a.(heap + l + 1) < a.(heap + l) then l + 1 else l in
    if c < size && a.(heap + c) < x then begin
      a.(heap + !i) <- a.(heap + c);
      i := c
    end
    else sifting := false
  done;
  a.(heap + !i) <- x;
  top

(* Kahn's algorithm.  The ready nodes wait in a min-heap, so the
   smallest ready id goes first and the order is deterministic.  The
   in-degree countdown lives at [a.(scratch + u)] and the heap at
   [a.(scratch + n ..)]; both are left dirty. *)
let order_into g a ~scratch ~out =
  let n = Digraph.node_count g and adj = Digraph.adj g in
  let heap = scratch + n and size = ref 0 in
  for u = 0 to n - 1 do
    let d = Digraph.in_degree g u in
    a.(scratch + u) <- d;
    if d = 0 then begin
      push a heap !size u;
      incr size
    end
  done;
  let k = ref 0 in
  while !size > 0 do
    let u = pop a heap !size in
    decr size;
    a.(out + !k) <- u;
    incr k;
    for j = Digraph.succ_start g u to Digraph.succ_stop g u - 1 do
      let v = adj.(j) in
      a.(scratch + v) <- a.(scratch + v) - 1;
      if a.(scratch + v) = 0 then begin
        push a heap !size v;
        incr size
      end
    done
  done;
  !k = n

let order g =
  let n = Digraph.node_count g in
  let a = Array.make (3 * n) 0 in
  if order_into g a ~scratch:0 ~out:(2 * n) then Some (Array.sub a (2 * n) n)
  else None

let is_acyclic g = order g <> None

(* Colored DFS; on finding a back edge, reconstruct the cycle from the
   gray stack. *)
let find_cycle g =
  let n = Digraph.node_count g in
  let color = Array.make n 0 in
  (* 0 white, 1 gray, 2 black *)
  let exception Cycle of int list in
  let rec visit path u =
    color.(u) <- 1;
    let path = u :: path in
    Digraph.iter_succ g u (fun v ->
        if color.(v) = 1 then begin
          let rec take acc = function
            | [] -> acc
            | w :: rest -> if w = v then w :: acc else take (w :: acc) rest
          in
          raise (Cycle (take [] path))
        end
        else if color.(v) = 0 then visit path v);
    color.(u) <- 2
  in
  try
    for u = 0 to n - 1 do
      if color.(u) = 0 then visit [] u
    done;
    None
  with Cycle c -> Some c

let minimal g =
  List.filter
    (fun u -> Digraph.in_degree g u = 0)
    (List.init (Digraph.node_count g) Fun.id)

let maximal g =
  List.filter
    (fun u -> Digraph.out_degree g u = 0)
    (List.init (Digraph.node_count g) Fun.id)

let require_acyclic g name =
  if not (is_acyclic g) then invalid_arg (name ^ ": graph is cyclic")

let linear_extensions g =
  require_acyclic g "Topo.linear_extensions";
  let n = Digraph.node_count g in
  (* Enumerate lazily: state = (in-degree array, ready set, prefix). *)
  let rec extend deg ready prefix k () =
    if k = n then Seq.Cons (List.rev prefix, Seq.empty)
    else
      let alts =
        IntSet.fold
          (fun u acc ->
            let deg' = Array.copy deg in
            let ready' = ref (IntSet.remove u ready) in
            Digraph.iter_succ g u (fun v ->
                deg'.(v) <- deg'.(v) - 1;
                if deg'.(v) = 0 then ready' := IntSet.add v !ready');
            extend deg' !ready' (u :: prefix) (k + 1) :: acc)
          ready []
      in
      Seq.concat (List.to_seq (List.rev alts)) ()
  in
  let deg = in_degrees g in
  let ready = ref IntSet.empty in
  for u = 0 to n - 1 do
    if deg.(u) = 0 then ready := IntSet.add u !ready
  done;
  extend deg !ready [] 0

let all_pred g u p =
  let ok = ref true in
  Digraph.iter_pred g u (fun v -> if not (p v) then ok := false);
  !ok

let count_linear_extensions g =
  require_acyclic g "Topo.count_linear_extensions";
  let n = Digraph.node_count g in
  (* Memoize on the set of already-placed nodes (an order ideal). *)
  let memo = Hashtbl.create 97 in
  let rec count placed =
    if Bitset.cardinal placed = n then 1
    else
      let key = Bitset.hash placed in
      let bucket = try Hashtbl.find memo key with Not_found -> [] in
      match List.find_opt (fun (s, _) -> Bitset.equal s placed) bucket with
      | Some (_, c) -> c
      | None ->
          let total = ref 0 in
          for u = 0 to n - 1 do
            if
              (not (Bitset.mem placed u))
              && all_pred g u (Bitset.mem placed)
            then begin
              let placed' = Bitset.copy placed in
              Bitset.set placed' u;
              total := !total + count placed'
            end
          done;
          Hashtbl.replace memo key ((Bitset.copy placed, !total) :: bucket);
          !total
  in
  count (Bitset.create n)

let random_linear_extension rng g =
  require_acyclic g "Topo.random_linear_extension";
  let n = Digraph.node_count g in
  let deg = in_degrees g in
  let ready = ref [] in
  for u = n - 1 downto 0 do
    if deg.(u) = 0 then ready := u :: !ready
  done;
  let rec go acc k =
    if k = n then List.rev acc
    else begin
      let len = List.length !ready in
      let idx = Random.State.int rng len in
      let u = List.nth !ready idx in
      ready := List.filter (fun v -> v <> u) !ready;
      Digraph.iter_succ g u (fun v ->
          deg.(v) <- deg.(v) - 1;
          if deg.(v) = 0 then ready := v :: !ready);
      go (u :: acc) (k + 1)
    end
  in
  go [] 0

let is_linear_extension g order =
  let n = Digraph.node_count g in
  let pos = Array.make n (-1) in
  let ok = ref (List.length order = n) in
  List.iteri
    (fun i u ->
      if u < 0 || u >= n || pos.(u) >= 0 then ok := false else pos.(u) <- i)
    order;
  !ok
  && List.for_all
       (fun (u, v) -> pos.(u) < pos.(v))
       (Digraph.edges g)
