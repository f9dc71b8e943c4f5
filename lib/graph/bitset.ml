type t = { cap : int; words : int array }

let word_bits = Sys.int_size

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { cap; words = Array.make ((cap + word_bits - 1) / word_bits) 0 }

let capacity t = t.cap

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words
let copy t = { t with words = Array.copy t.words }

let check_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let union_into ~into s =
  check_cap into s;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) s.words

let inter_into ~into s =
  check_cap into s;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land w) s.words

let diff_into ~into s =
  check_cap into s;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land lnot w) s.words

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

let disjoint a b =
  check_cap a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let subset a b =
  check_cap a b;
  let n = Array.length a.words in
  let rec go i =
    i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let equal a b = a.cap = b.cap && a.words = b.words

let compare a b =
  check_cap a b;
  let n = Array.length a.words in
  let rec go i =
    if i >= n then 0
    else
      let c = Int.compare a.words.(i) b.words.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to word_bits - 1 do
        if word land (1 lsl b) <> 0 then f ((w * word_bits) + b)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

exception Found of int

let choose t =
  match iter (fun i -> raise (Found i)) t with
  | () -> None
  | exception Found i -> Some i

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list cap l =
  let t = create cap in
  List.iter (set t) l;
  t

let exists p t =
  match iter (fun i -> if p i then raise (Found i)) t with
  | () -> false
  | exception Found _ -> true

let for_all p t = not (exists (fun i -> not (p i)) t)
let hash t = Hashtbl.hash t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)
