(** Global addresses: 128-bit identifiers into Khazana's shared store.

    A thin layer over {!U128} adding the page arithmetic the daemon needs.
    Page sizes are powers of two, 4 KiB by default. *)

type t = U128.t

val zero : t
val of_int : int -> t
val add_int : t -> int -> t

val offset_from : base:t -> t -> int
(** {!U128.offset_from}: [addr - base] as an int, [-1] when [addr] lies
    below [base] or too far above it. Allocates nothing. *)

val diff : t -> t -> int
(** [diff a b] is [a - b] as an int; raises if negative or too large. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** {!U128.hash}: mixes every bit into the low bits that a {!Table}
    masks, so page-aligned addresses spread over the buckets. Placement
    must not depend on it; it may change with the mixer. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val default_page_size : int
(** 4096, "to match the most common machine virtual memory page size". *)

val valid_page_size : int -> bool
(** Power of two, at least 4 KiB (the paper allows 4K, 16K, 64K, ...). *)

val page_floor : t -> page_size:int -> t
(** Round down to the enclosing page boundary by masking the low word; an
    aligned address comes back physically unchanged. *)

val page_offset : t -> page_size:int -> int
val is_page_aligned : t -> page_size:int -> bool

val pages_in : t -> len:int -> page_size:int -> t list
(** Page-aligned addresses of every page overlapping [\[addr, addr+len)]. *)

module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
