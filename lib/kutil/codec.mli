(** Binary encoding helpers.

    Khazana stores its own metadata (address-map tree nodes, file-system
    inodes, object headers) inside ordinary pages, so structured values must
    round-trip through bytes. Encoders append to a growable buffer that can
    be reset and reused; decoders consume from a cursor over a whole buffer
    or a slice of one and raise {!Decode_error} on malformed input. *)

exception Decode_error of string

(** {1 Encoding} *)

type encoder

val encoder : unit -> encoder
(** A fresh, empty encoder (256 bytes of capacity, doubling as needed). *)

val to_bytes : encoder -> bytes
(** An exact copy of the bytes encoded so far. *)

val reset : encoder -> unit
(** Forget the encoded bytes, keeping the capacity for reuse. *)

val length : encoder -> int
(** Number of bytes encoded since creation or the last {!reset}. *)

val contents : encoder -> bytes
(** The underlying buffer, not a copy: its first {!length} bytes are the
    encoding. Valid only until the next write to or {!reset} of the
    encoder; a caller that keeps the bytes longer must copy them. *)

val patch_u32 : encoder -> at:int -> int -> unit
(** Overwrite the 4 already-encoded bytes at offset [at] with a big-endian
    u32, e.g. a length prefix reserved with [u32 e 0]. *)

val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
val u64 : encoder -> int64 -> unit
val int : encoder -> int -> unit
val u128 : encoder -> U128.t -> unit
val bool : encoder -> bool -> unit
val string : encoder -> string -> unit
val bytes : encoder -> bytes -> unit
val list : encoder -> ('a -> unit) -> 'a list -> unit
val option : encoder -> ('a -> unit) -> 'a option -> unit

(** {1 Decoding} *)

type decoder

val decoder : bytes -> decoder

val decoder_sub : bytes -> off:int -> len:int -> decoder
(** A decoder over [len] bytes of [buf] starting at [off]. Every read and
    length-prefix guard stops at the slice's end, never the buffer's.
    Decoded strings and bytes are fresh copies, so they outlive [buf]. *)

val remaining : decoder -> int

val read_u8 : decoder -> int
val read_u16 : decoder -> int
val read_u32 : decoder -> int
val read_u64 : decoder -> int64
val read_int : decoder -> int
val read_u128 : decoder -> U128.t
val read_bool : decoder -> bool
val read_string : decoder -> string
val read_bytes : decoder -> bytes
(* [read_list d f] rejects length prefixes exceeding the remaining input
   (every element in our formats occupies at least one byte), so malformed
   input cannot drive unbounded allocation. *)
val read_list : decoder -> (unit -> 'a) -> 'a list
val read_option : decoder -> (unit -> 'a) -> 'a option
