module Gaddr = Kutil.Gaddr

type state = Reserved | Allocated

type t = {
  base : Gaddr.t;
  len : int;
  attr : Attr.t;
  home : Knet.Topology.node_id;
  state : state;
}

let make ~base ~len ~attr ~home =
  let page_size = attr.Attr.page_size in
  if not (Gaddr.is_page_aligned base ~page_size) then
    invalid_arg "Region.make: base not page-aligned";
  if len <= 0 || len mod page_size <> 0 then
    invalid_arg "Region.make: length must be a positive page multiple";
  { base; len; attr; home; state = Reserved }

let allocated t = { t with state = Allocated }
let page_count t = t.len / t.attr.Attr.page_size

let pages t =
  Gaddr.pages_in t.base ~len:t.len ~page_size:t.attr.Attr.page_size

let end_ t = Gaddr.add_int t.base t.len

(* Both range tests compare the address's offset into the region with its
   length instead of building [end_]: no allocation on a lookup. *)
let contains t addr =
  let off = Gaddr.offset_from ~base:t.base addr in
  off >= 0 && off < t.len

let contains_range t addr ~len =
  let off = Gaddr.offset_from ~base:t.base addr in
  len >= 0 && off >= 0 && off < t.len && len <= t.len - off

let page_of t addr =
  if not (contains t addr) then invalid_arg "Region.page_of: out of range";
  Gaddr.page_floor addr ~page_size:t.attr.Attr.page_size

let state_to_int = function Reserved -> 0 | Allocated -> 1

let state_of_int = function
  | 0 -> Reserved
  | 1 -> Allocated
  | n -> raise (Kutil.Codec.Decode_error (Printf.sprintf "bad state %d" n))

let encode e t =
  Kutil.Codec.u128 e t.base;
  Kutil.Codec.int e t.len;
  Attr.encode e t.attr;
  Kutil.Codec.u32 e t.home;
  Kutil.Codec.u8 e (state_to_int t.state)

let decode d =
  let base = Kutil.Codec.read_u128 d in
  let len = Kutil.Codec.read_int d in
  let attr = Attr.decode d in
  let home = Kutil.Codec.read_u32 d in
  let state = state_of_int (Kutil.Codec.read_u8 d) in
  { base; len; attr; home; state }

let pp ppf t =
  Format.fprintf ppf "region[%a+%d home=n%d %a %s]" Gaddr.pp t.base t.len
    t.home Attr.pp t.attr
    (match t.state with Reserved -> "reserved" | Allocated -> "allocated")
