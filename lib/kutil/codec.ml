exception Decode_error of string

(* A growable byte buffer with [Buffer]'s growth policy (start at 256
   bytes, double on overflow), but with its bytes and length exposed so a
   caller can reuse it across messages and write from it directly. *)
type encoder = { mutable buf : bytes; mutable len : int }

let encoder () = { buf = Bytes.create 256; len = 0 }
let to_bytes e = Bytes.sub e.buf 0 e.len
let reset e = e.len <- 0
let length e = e.len
let contents e = e.buf

let grow e need =
  let cap = ref (Bytes.length e.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit e.buf 0 b 0 e.len;
  e.buf <- b

let[@inline] reserve e n =
  if e.len + n > Bytes.length e.buf then grow e (e.len + n)

let check_u32 name v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg ("Codec." ^ name ^ ": out of range")

let u8 e v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
  reserve e 1;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr v);
  e.len <- e.len + 1

let u16 e v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: out of range";
  reserve e 2;
  Bytes.set_uint16_be e.buf e.len v;
  e.len <- e.len + 2

let u32 e v =
  check_u32 "u32" v;
  reserve e 4;
  Bytes.set_int32_be e.buf e.len (Int32.of_int v);
  e.len <- e.len + 4

let patch_u32 e ~at v =
  check_u32 "patch_u32" v;
  if at < 0 || at + 4 > e.len then invalid_arg "Codec.patch_u32: offset";
  Bytes.set_int32_be e.buf at (Int32.of_int v)

let u64 e v =
  reserve e 8;
  Bytes.set_int64_be e.buf e.len v;
  e.len <- e.len + 8

(* Written out rather than [u64 e (Int64.of_int v)]: the conversion then
   feeds the store primitive directly and boxes nothing. *)
let int e v =
  reserve e 8;
  Bytes.set_int64_be e.buf e.len (Int64.of_int v);
  e.len <- e.len + 8

let u128 e (v : U128.t) =
  u64 e v.U128.hi;
  u64 e v.U128.lo

let bool e v = u8 e (if v then 1 else 0)

let string e s =
  let n = String.length s in
  u32 e n;
  reserve e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

let bytes e b = string e (Bytes.unsafe_to_string b)

let list e f xs =
  u32 e (List.length xs);
  List.iter f xs

let option e f = function
  | None -> u8 e 0
  | Some x ->
    u8 e 1;
    f x

(* A cursor over [buf.[pos] .. buf.[limit - 1]]; nothing past [limit] is
   ever read, whatever the backing buffer holds beyond it. *)
type decoder = { buf : bytes; mutable pos : int; limit : int }

let decoder_sub buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Codec.decoder_sub: slice out of bounds";
  { buf; pos = off; limit = off + len }

let decoder buf = { buf; pos = 0; limit = Bytes.length buf }
let remaining d = d.limit - d.pos

let need d n =
  if remaining d < n then
    raise (Decode_error (Printf.sprintf "need %d bytes, have %d" n (remaining d)))

let read_u8 d =
  need d 1;
  let v = Char.code (Bytes.get d.buf d.pos) in
  d.pos <- d.pos + 1;
  v

let read_u16 d =
  need d 2;
  let v = Bytes.get_uint16_be d.buf d.pos in
  d.pos <- d.pos + 2;
  v

let read_u32 d =
  need d 4;
  let v = Int32.to_int (Bytes.get_int32_be d.buf d.pos) land 0xFFFF_FFFF in
  d.pos <- d.pos + 4;
  v

let read_u64 d =
  need d 8;
  let v = Bytes.get_int64_be d.buf d.pos in
  d.pos <- d.pos + 8;
  v

let read_int d = Int64.to_int (read_u64 d)

let read_u128 d =
  let hi = read_u64 d in
  let lo = read_u64 d in
  U128.make ~hi ~lo

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool tag %d" n))

let read_string d =
  let len = read_u32 d in
  need d len;
  let s = Bytes.sub_string d.buf d.pos len in
  d.pos <- d.pos + len;
  s

let read_bytes d = Bytes.unsafe_of_string (read_string d)

let read_list d f =
  let len = read_u32 d in
  (* Never trust a length prefix: every element occupies at least one byte
     in our formats, so a count beyond the remaining input is malformed —
     and must not drive a multi-gigabyte allocation. *)
  if len > remaining d then
    raise
      (Decode_error
         (Printf.sprintf "list length %d exceeds %d remaining bytes" len
            (remaining d)));
  List.init len (fun _ -> f ())

let read_option d f =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (f ())
  | n -> raise (Decode_error (Printf.sprintf "bad option tag %d" n))
