type t = { hi : int64; lo : int64 }

let zero = { hi = 0L; lo = 0L }
let one = { hi = 0L; lo = 1L }
let max_value = { hi = -1L; lo = -1L }
let make ~hi ~lo = { hi; lo }

let of_int n =
  if n < 0 then invalid_arg "U128.of_int: negative";
  { hi = 0L; lo = Int64.of_int n }

let to_int v =
  if v.hi <> 0L || Int64.unsigned_compare v.lo (Int64.of_int max_int) > 0 then
    invalid_arg "U128.to_int: does not fit";
  Int64.to_int v.lo

let add a b =
  let lo = Int64.add a.lo b.lo in
  let carry = if Int64.unsigned_compare lo a.lo < 0 then 1L else 0L in
  { hi = Int64.add (Int64.add a.hi b.hi) carry; lo }

let sub a b =
  let lo = Int64.sub a.lo b.lo in
  let borrow = if Int64.unsigned_compare a.lo b.lo < 0 then 1L else 0L in
  { hi = Int64.sub (Int64.sub a.hi b.hi) borrow; lo }

(* Unsigned [a < b] on the raw halves, from primitives only so the
   halves stay unboxed. *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.logxor a 0x8000_0000_0000_0000L < Int64.logxor b 0x8000_0000_0000_0000L

(* The carry is added in place and an untouched [hi] keeps its box: one
   record and one [lo] box per call. *)
let add_int v n =
  if n < 0 then invalid_arg "U128.add_int: negative";
  if n = 0 then v
  else
    let lo = Int64.add v.lo (Int64.of_int n) in
    if ult lo v.lo then { hi = Int64.succ v.hi; lo } else { hi = v.hi; lo }

let offset_from ~base v =
  let ge = if v.hi = base.hi then not (ult v.lo base.lo) else ult base.hi v.hi in
  if not ge then -1
  else
    let lo = Int64.sub v.lo base.lo in
    let borrow = if ult v.lo base.lo then 1L else 0L in
    let hi = Int64.sub (Int64.sub v.hi base.hi) borrow in
    if hi = 0L && lo >= 0L && lo <= 0x3FFF_FFFF_FFFF_FFFFL then Int64.to_int lo
    else -1

let succ v = add v one

(* Multiply by a small non-negative integer using 32-bit limbs so every
   intermediate product fits in a signed int64. *)
let mul_int v n =
  if n < 0 then invalid_arg "U128.mul_int: negative";
  if n >= 0x8000_0000 then invalid_arg "U128.mul_int: factor too large";
  let n64 = Int64.of_int n in
  let mask = 0xFFFF_FFFFL in
  let limb i =
    match i with
    | 0 -> Int64.logand v.lo mask
    | 1 -> Int64.shift_right_logical v.lo 32
    | 2 -> Int64.logand v.hi mask
    | 3 -> Int64.shift_right_logical v.hi 32
    | _ -> assert false
  in
  let out = Array.make 4 0L in
  let carry = ref 0L in
  for i = 0 to 3 do
    let p = Int64.add (Int64.mul (limb i) n64) !carry in
    out.(i) <- Int64.logand p mask;
    carry := Int64.shift_right_logical p 32
  done;
  {
    lo = Int64.logor out.(0) (Int64.shift_left out.(1) 32);
    hi = Int64.logor out.(2) (Int64.shift_left out.(3) 32);
  }

let logand a b = { hi = Int64.logand a.hi b.hi; lo = Int64.logand a.lo b.lo }
let logor a b = { hi = Int64.logor a.hi b.hi; lo = Int64.logor a.lo b.lo }

let shift_left v n =
  if n < 0 || n > 128 then invalid_arg "U128.shift_left";
  if n = 0 then v
  else if n >= 128 then zero
  else if n >= 64 then { hi = Int64.shift_left v.lo (n - 64); lo = 0L }
  else
    {
      hi =
        Int64.logor (Int64.shift_left v.hi n)
          (Int64.shift_right_logical v.lo (64 - n));
      lo = Int64.shift_left v.lo n;
    }

let shift_right v n =
  if n < 0 || n > 128 then invalid_arg "U128.shift_right";
  if n = 0 then v
  else if n >= 128 then zero
  else if n >= 64 then { hi = 0L; lo = Int64.shift_right_logical v.hi (n - 64) }
  else
    {
      hi = Int64.shift_right_logical v.hi n;
      lo =
        Int64.logor
          (Int64.shift_right_logical v.lo n)
          (Int64.shift_left v.hi (64 - n));
    }

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let distance a b = if compare a b >= 0 then sub a b else sub b a

let bit v i =
  if i < 64 then Int64.to_int (Int64.logand (Int64.shift_right_logical v.lo i) 1L)
  else Int64.to_int (Int64.logand (Int64.shift_right_logical v.hi (i - 64)) 1L)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

(* Long division of a 128-bit value by a small positive integer. The common
   power-of-two case (page sizes) short-circuits to shifts; otherwise a
   bitwise schoolbook division keeps the running remainder below [2*n], so
   [n] must stay below 2^61 to avoid native-int overflow. *)
let divmod_int v n =
  if n <= 0 then invalid_arg "U128.divmod_int: non-positive divisor";
  if is_power_of_two n then
    let k = log2 n in
    let q = shift_right v k in
    let r = Int64.to_int (Int64.logand v.lo (Int64.of_int (n - 1))) in
    (q, r)
  else begin
    if n >= 1 lsl 61 then invalid_arg "U128.divmod_int: divisor too large";
    let q = ref zero and rem = ref 0 in
    for i = 127 downto 0 do
      rem := (!rem lsl 1) lor bit v i;
      if !rem >= n then begin
        rem := !rem - n;
        q := logor !q (shift_left one i)
      end
    done;
    (!q, !rem)
  end

let to_hex v = Printf.sprintf "%016Lx%016Lx" v.hi v.lo

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "U128.of_hex: bad digit"

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  let len = String.length s in
  if len = 0 || len > 32 then invalid_arg "U128.of_hex: bad length";
  let acc = ref zero in
  String.iter
    (fun c -> acc := logor (shift_left !acc 4) (of_int (hex_digit c)))
    s;
  !acc

let to_string v =
  let h = to_hex v in
  let rec first_nonzero i =
    if i >= String.length h - 1 then i
    else if h.[i] <> '0' then i
    else first_nonzero (i + 1)
  in
  let i = first_nonzero 0 in
  "0x" ^ String.sub h i (String.length h - i)

let pp ppf v = Format.pp_print_string ppf (to_string v)

let hash v =
  let mix a b = (a * 0x9E3779B1) lxor (b + (a lsl 6) + (a lsr 2)) in
  mix (Int64.to_int v.hi) (Int64.to_int v.lo) land max_int
