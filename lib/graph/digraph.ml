type t = { n : int; succ : int array array; pred : int array array; m : int }

let sort_dedup a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

let build n edges =
  let out_cnt = Array.make n 0 and in_cnt = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: node out of range";
      out_cnt.(u) <- out_cnt.(u) + 1;
      in_cnt.(v) <- in_cnt.(v) + 1)
    edges;
  let succ = Array.init n (fun i -> Array.make out_cnt.(i) 0) in
  let pred = Array.init n (fun i -> Array.make in_cnt.(i) 0) in
  let oi = Array.make n 0 and ii = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      succ.(u).(oi.(u)) <- v;
      oi.(u) <- oi.(u) + 1;
      pred.(v).(ii.(v)) <- u;
      ii.(v) <- ii.(v) + 1)
    edges;
  let succ = Array.map sort_dedup succ and pred = Array.map sort_dedup pred in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 succ in
  { n; succ; pred; m }

let create n edges = build n edges
let node_count t = t.n
let edge_count t = t.m
let succ t u = t.succ.(u)
let pred t u = t.pred.(u)
let out_degree t u = Array.length t.succ.(u)
let in_degree t u = Array.length t.pred.(u)

let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let mem_edge t u v = mem_sorted t.succ.(u) v

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = Array.length t.succ.(u) - 1 downto 0 do
      acc := (u, t.succ.(u).(i)) :: !acc
    done
  done;
  !acc

let add_edges t es = build t.n (List.rev_append es (edges t))
let transpose t = { t with succ = t.pred; pred = t.succ }

let induced t keep =
  let renum = Array.make t.n (-1) in
  let k = ref 0 in
  for u = 0 to t.n - 1 do
    if keep u then begin
      renum.(u) <- !k;
      incr k
    end
  done;
  let es = ref [] in
  List.iter
    (fun (u, v) ->
      if renum.(u) >= 0 && renum.(v) >= 0 then
        es := (renum.(u), renum.(v)) :: !es)
    (edges t);
  (build !k !es, renum)

let reachable_from_set t srcs =
  let seen = Bitset.create t.n in
  let stack = ref [] in
  let push u =
    if not (Bitset.mem seen u) then begin
      Bitset.set seen u;
      stack := u :: !stack
    end
  in
  List.iter push srcs;
  let rec go () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        Array.iter push t.succ.(u);
        go ()
  in
  go ();
  seen

let reachable t src = reachable_from_set t [ src ]

let pp ppf t =
  Format.fprintf ppf "@[<v>digraph(%d nodes, %d edges)" t.n t.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d -> %d" u v) (edges t);
  Format.fprintf ppf "@]"
