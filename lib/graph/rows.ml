let bits = Sys.int_size
let words n = (n + bits - 1) / bits
let[@inline] mem a o i = a.(o + (i / bits)) land (1 lsl (i mod bits)) <> 0

let[@inline] set a o i =
  let k = o + (i / bits) in
  a.(k) <- a.(k) lor (1 lsl (i mod bits))

(* [log2.(p mod 67)] is the exponent of the power of two [p] < 2^62: 2
   generates the units modulo the prime 67, so the residues of 2^0 ..
   2^61 are distinct.  The top bit, 2^62, is [min_int]. *)
let log2 =
  let t = Array.make 67 0 in
  for b = 0 to bits - 2 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let[@inline] lowest x =
  let b = x land -x in
  if b = min_int then bits - 1 else log2.(b mod 67)

(* The elements of word [k] still to try are the bits of [m]. *)
let rec find_from w word f k m =
  if m <> 0 then
    let b = m land -m in
    match f ((k * bits) + lowest b) with
    | None -> find_from w word f k (m lxor b)
    | r -> r
  else if k + 1 < w then find_from w word f (k + 1) (word (k + 1))
  else None

let find w word f = if w > 0 then find_from w word f 0 (word 0) else None

let iter w word f =
  ignore
    (find w word (fun i ->
         f i;
         None))
