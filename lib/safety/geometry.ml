open Ddlock_graph
open Ddlock_model

let sequence t =
  if not (Lemma2.is_total t) then
    invalid_arg "Geometry: transactions must be total orders";
  Transaction.order t

(* 1-based step position of a node in the total order. *)
let positions t =
  let seq = sequence t in
  let pos = Array.make (Array.length seq) 0 in
  Array.iteri (fun i v -> pos.(v) <- i + 1) seq;
  pos

(* Per common entity x: the forbidden rectangle
   [pos1 Lx, pos1 Ux) × [pos2 Lx, pos2 Ux).                        *)
type rect = { a1 : int; b1 : int; a2 : int; b2 : int; entity : Db.entity }

let rectangles t1 t2 =
  let p1 = positions t1 and p2 = positions t2 in
  let common =
    Bitset.inter (Transaction.entity_set t1) (Transaction.entity_set t2)
  in
  Bitset.fold
    (fun x acc ->
      {
        a1 = p1.(Transaction.lock_node_exn t1 x);
        b1 = p1.(Transaction.unlock_node_exn t1 x);
        a2 = p2.(Transaction.lock_node_exn t2 x);
        b2 = p2.(Transaction.unlock_node_exn t2 x);
        entity = x;
      }
      :: acc)
    common []

let grid t1 t2 =
  let n1 = Transaction.node_count t1 and n2 = Transaction.node_count t2 in
  let g = Array.make_matrix (n1 + 1) (n2 + 1) false in
  List.iter
    (fun r ->
      for i = r.a1 to r.b1 - 1 do
        for j = r.a2 to r.b2 - 1 do
          g.(i).(j) <- true
        done
      done)
    (rectangles t1 t2);
  g

(* Monotone reachability through free cells, from a seed predicate. *)
let reach_from g seed =
  let n1 = Array.length g - 1 and n2 = Array.length g.(0) - 1 in
  let r = Array.make_matrix (n1 + 1) (n2 + 1) false in
  for i = 0 to n1 do
    for j = 0 to n2 do
      if not g.(i).(j) then
        r.(i).(j) <-
          seed i j
          || (i > 0 && r.(i - 1).(j))
          || (j > 0 && r.(i).(j - 1))
    done
  done;
  r

(* Co-reachability: cells from which the top-right corner is reachable. *)
let reach_to_end g =
  let n1 = Array.length g - 1 and n2 = Array.length g.(0) - 1 in
  let r = Array.make_matrix (n1 + 1) (n2 + 1) false in
  for i = n1 downto 0 do
    for j = n2 downto 0 do
      if not g.(i).(j) then
        r.(i).(j) <-
          (i = n1 && j = n2)
          || (i < n1 && r.(i + 1).(j))
          || (j < n2 && r.(i).(j + 1))
    done
  done;
  r

let find_deadlock_point t1 t2 =
  let g = grid t1 t2 in
  let n1 = Array.length g - 1 and n2 = Array.length g.(0) - 1 in
  let f = reach_from g (fun i j -> i = 0 && j = 0) in
  let result = ref None in
  for i = 0 to n1 - 1 do
    for j = 0 to n2 - 1 do
      if !result = None && f.(i).(j) && g.(i + 1).(j) && g.(i).(j + 1) then
        result := Some (i, j)
    done
  done;
  !result

let deadlock_free t1 t2 = find_deadlock_point t1 t2 = None

let safe t1 t2 =
  let g = grid t1 t2 in
  let rects = rectangles t1 t2 in
  let f = reach_from g (fun i j -> i = 0 && j = 0) in
  let b = reach_to_end g in
  (* SE_x = {i >= a1(x), j < a2(x)}: the path has seen T1 lock x while T2
     has not; NW_y symmetric. *)
  let se r i j = i >= r.a1 && j < r.a2 in
  let nw r i j = i < r.a1 && j >= r.a2 in
  (* Cells legally reachable from a forward-reachable cell of region. *)
  let reach_from_region pred =
    reach_from g (fun i j -> f.(i).(j) && pred i j)
  in
  let hit reach pred =
    let n1 = Array.length g - 1 and n2 = Array.length g.(0) - 1 in
    let found = ref false in
    for i = 0 to n1 do
      for j = 0 to n2 do
        if (not !found) && reach.(i).(j) && b.(i).(j) && pred i j then
          found := true
      done
    done;
    !found
  in
  let unsafe = ref false in
  List.iter
    (fun rx ->
      if not !unsafe then begin
        let from_se = reach_from_region (se rx) in
        let from_nw = reach_from_region (nw rx) in
        List.iter
          (fun ry ->
            if (not !unsafe) && rx.entity <> ry.entity then
              if hit from_se (nw ry) || hit from_nw (se ry) then unsafe := true)
          rects
      end)
    rects;
  not !unsafe

let safe_and_deadlock_free t1 t2 = deadlock_free t1 t2 && safe t1 t2
