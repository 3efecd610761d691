(** Unsigned 128-bit integers.

    Khazana addresses its global store with 128-bit identifiers; this module
    provides the arithmetic the address map and region allocator need.
    Values are immutable pairs of [int64] halves and compare as unsigned
    quantities. *)

type t = private { hi : int64; lo : int64 }

val zero : t
val one : t
val max_value : t

val make : hi:int64 -> lo:int64 -> t

val of_int : int -> t
(** [of_int n] injects a non-negative OCaml integer. Raises
    [Invalid_argument] on negative input. *)

val to_int : t -> int
(** [to_int v] converts back to an OCaml integer. Raises [Invalid_argument]
    when [v] does not fit in 62 bits. *)

val add : t -> t -> t
(** Wrapping addition modulo 2^128. *)

val sub : t -> t -> t
(** Wrapping subtraction modulo 2^128. *)

val add_int : t -> int -> t
(** [add_int v n] adds a non-negative integer offset (wrapping modulo
    2^128). [add_int v 0] is [v] itself. *)

val offset_from : base:t -> t -> int
(** [offset_from ~base v] is [v - base] when [base <= v] and the distance
    fits in a non-negative OCaml int, [-1] otherwise. Allocates nothing:
    range tests on hot paths compare offsets instead of building ends. *)

val succ : t -> t
val mul_int : t -> int -> t

val divmod_int : t -> int -> t * int
(** [divmod_int v n] is the unsigned quotient and remainder of [v] by a
    positive integer [n]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical (unsigned) shift; shift counts in [0, 128]. *)

val compare : t -> t -> int
(** Unsigned comparison. *)

val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val distance : t -> t -> t
(** [distance a b] is [abs (a - b)] in the unsigned order. *)

val to_hex : t -> string
(** Lower-case, zero-padded 32-digit hex representation. *)

val of_hex : string -> t
(** Inverse of {!to_hex}; accepts 1 to 32 hex digits, optionally prefixed
    with ["0x"]. Raises [Invalid_argument] on malformed input. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Compact form: hex with leading zeros elided, ["0x"]-prefixed. *)

val hash : t -> int
