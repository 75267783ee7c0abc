type t = { words : int array; capacity : int }

(* 32 elements per word (16 on 32-bit hosts): indexing compiles to a
   shift and a mask instead of division by the awkward constant 63,
   and every word fits the unboxed int with room to spare, so the
   SWAR popcount below needs no overflow care. *)
let log_word_bits = if Sys.int_size >= 33 then 5 else 4
let word_bits = 1 lsl log_word_bits
let index_mask = word_bits - 1

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((capacity + word_bits - 1) lsr log_word_bits) 0; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: element %d out of [0,%d)" i t.capacity)

(* Unchecked variants for inner loops that have already validated the
   range (the surviving-diameter evaluator); out-of-range indices are
   undefined behaviour. *)

(* bounds: caller guarantees 0 <= i < capacity, so i lsr log_word_bits
   < (capacity + word_bits - 1) lsr log_word_bits = Array.length words. *)
let unsafe_mem t i =
  Array.unsafe_get t.words (i lsr log_word_bits) land (1 lsl (i land index_mask)) <> 0

(* bounds: caller guarantees 0 <= i < capacity (see unsafe_mem). *)
let unsafe_add t i =
  let w = i lsr log_word_bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i land index_mask)))

(* bounds: caller guarantees 0 <= i < capacity (see unsafe_mem). *)
let unsafe_remove t i =
  let w = i lsr log_word_bits in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i land index_mask)))

(* bounds: check validates 0 <= i < capacity before the unchecked read. *)
let mem t i =
  check t i;
  unsafe_mem t i

(* bounds: check validates 0 <= i < capacity before the unchecked write. *)
let add t i =
  check t i;
  unsafe_add t i

(* bounds: check validates 0 <= i < capacity before the unchecked write. *)
let remove t i =
  check t i;
  unsafe_remove t i

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Branch-free SWAR popcount over the full native int width.  The wide
   masks must be assembled at runtime: the 63-bit literal
   0x5555555555555555 does not fit OCaml's int. *)
let repeat16 pat =
  let rec go acc k = if k >= Sys.int_size then acc else go ((acc lsl 16) lor pat) (k + 16) in
  go 0 0

let m1 = repeat16 0x5555
let m2 = repeat16 0x3333
let m4 = repeat16 0x0f0f

(* [@inline], as is lowest_bit_index: the BFS kernels call both once
   per set bit, and without flambda a function this size is never
   inlined across modules; the call then costs more than the SWAR
   arithmetic. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  let x = if Sys.int_size > 32 then x + (x lsr 32) else x in
  x land 0x7f

(* Index of the lowest set bit; [x] must be non-zero. *)
let[@inline] lowest_bit_index x =
  let b = x land -x in
  popcount (b - 1)

(* The word with the low [k] bits set. [k = Sys.int_size] needs its own
   branch: [1 lsl Sys.int_size] is undefined, and the all-ones word is
   [-1] in two's complement. Used by the bit-sliced evaluator to mask
   its active lanes. *)
let mask k =
  if k < 0 || k > Sys.int_size then
    invalid_arg "Bitset.mask: width outside [0, Sys.int_size]";
  if k = Sys.int_size then -1 else (1 lsl k) - 1

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let copy t = { t with words = Array.copy t.words }

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  a.words = b.words

let subset a b =
  same_capacity a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot b.words.(i) <> 0 then ok := false) a.words;
  !ok

let disjoint a b =
  same_capacity a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land b.words.(i) <> 0 then ok := false) a.words;
  !ok

let union_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let inter_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) src.words

let diff_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land lnot w) src.words

(* Word-skipping iteration: peel the lowest set bit until the word is
   exhausted, so sparse sets cost O(population), not O(capacity).
   bounds: the for-loop bound keeps w < Array.length words. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref (Array.unsafe_get t.words w) in
    let base = w lsl log_word_bits in
    while !word <> 0 do
      f (base + lowest_bit_index !word);
      word := !word land (!word - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity xs =
  let t = create capacity in
  List.iter (add t) xs;
  t

exception Found of int

let choose t =
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (elements t)
