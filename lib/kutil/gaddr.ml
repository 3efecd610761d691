type t = U128.t

let zero = U128.zero
let of_int = U128.of_int
let add_int = U128.add_int
let offset_from = U128.offset_from

let diff a b =
  if U128.compare a b < 0 then invalid_arg "Gaddr.diff: negative";
  U128.to_int (U128.sub a b)

let compare = U128.compare
let equal = U128.equal
let hash = U128.hash
let pp = U128.pp
let to_string = U128.to_string
let default_page_size = 4096
let valid_page_size n = n >= 4096 && n land (n - 1) = 0

(* Page sizes are powers of two below 2^62, so the page boundary and the
   offset into the page come from masking the low word: no division, and
   an already-aligned address is returned as it is. *)
let page_offset addr ~page_size =
  if not (valid_page_size page_size) then invalid_arg "Gaddr: bad page size";
  Int64.to_int (Int64.logand addr.U128.lo (Int64.of_int (page_size - 1)))

let page_floor addr ~page_size =
  let off = page_offset addr ~page_size in
  if off = 0 then addr
  else
    U128.make ~hi:addr.U128.hi
      ~lo:(Int64.logand addr.U128.lo (Int64.lognot (Int64.of_int (page_size - 1))))

let is_page_aligned addr ~page_size = page_offset addr ~page_size = 0

let pages_in addr ~len ~page_size =
  if len < 0 then invalid_arg "Gaddr.pages_in: negative length";
  if len = 0 then []
  else begin
    let first = page_floor addr ~page_size in
    (* [rest] counts the range's bytes from [p] on. *)
    let rest = page_offset addr ~page_size + len in
    if rest <= page_size then [ first ]
    else
      let rec loop acc p rest =
        let acc = p :: acc in
        if rest <= page_size then List.rev acc
        else loop acc (add_int p page_size) (rest - page_size)
      in
      loop [] first rest
  end

module Key = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Map = Map.Make (Key)
module Table = Hashtbl.Make (Key)
