type counter = { mutable n : int }

let counter () = { n = 0 }
let incr ?(by = 1) c = c.n <- c.n + by
let count c = c.n
let reset_counter c = c.n <- 0

type summary = {
  mutable values : float array;
  mutable len : int;
  mutable sorted : bool;
}

let summary () = { values = [||]; len = 0; sorted = true }

let add s v =
  let cap = Array.length s.values in
  if s.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nvalues = Array.make ncap 0.0 in
    Array.blit s.values 0 nvalues 0 s.len;
    s.values <- nvalues
  end;
  s.values.(s.len) <- v;
  s.len <- s.len + 1;
  s.sorted <- false

let samples s = s.len

let fold f acc s =
  let acc = ref acc in
  for i = 0 to s.len - 1 do
    acc := f !acc s.values.(i)
  done;
  !acc

let total s = fold ( +. ) 0.0 s
let mean s = if s.len = 0 then 0.0 else total s /. float_of_int s.len
let minimum s = if s.len = 0 then 0.0 else fold Float.min infinity s
let maximum s = if s.len = 0 then 0.0 else fold Float.max neg_infinity s

let ensure_sorted s =
  if not s.sorted then begin
    let arr = Array.sub s.values 0 s.len in
    Array.sort Float.compare arr;
    Array.blit arr 0 s.values 0 s.len;
    s.sorted <- true
  end

let percentile s p =
  if s.len = 0 then 0.0
  else begin
    ensure_sorted s;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int s.len)) in
    let idx = Stdlib.max 0 (Stdlib.min (s.len - 1) (rank - 1)) in
    s.values.(idx)
  end

let stddev s =
  if s.len < 2 then 0.0
  else begin
    let m = mean s in
    let ss = fold (fun acc v -> acc +. ((v -. m) ** 2.0)) 0.0 s in
    sqrt (ss /. float_of_int (s.len - 1))
  end

let pp_summary ~unit ppf s =
  Format.fprintf ppf "n=%d mean=%.2f%s p50=%.2f%s p99=%.2f%s max=%.2f%s"
    (samples s) (mean s) unit (percentile s 50.0) unit (percentile s 99.0)
    unit (maximum s) unit

module Histogram = struct
  (* Four buckets per power of two from 2^-10 to 2^14 (about 1 µs to 16 s
     when the unit is ms), one below for zero and anything smaller, the
     last one open-ended. A positive double's bits are monotonic in its
     value, so the bucket is the exponent and the top two mantissa bits,
     read off without a division or a log. *)
  let sub_bits = 2
  let min_exp = -10
  let max_exp = 14
  let buckets = ((max_exp - min_exp) lsl sub_bits) + 2
  let smallest = Float.ldexp 1.0 min_exp
  let first_key = (1023 + min_exp) lsl sub_bits

  (* [bounds] holds the sum, the minimum and the maximum unboxed. *)
  type t = { counts : int array; mutable n : int; bounds : float array }

  let create () =
    { counts = Array.make buckets 0; n = 0;
      bounds = [| 0.0; infinity; neg_infinity |] }

  let index v =
    if not (v >= smallest) then 0
    else
      let key =
        Int64.to_int
          (Int64.shift_right_logical (Int64.bits_of_float v) (52 - sub_bits))
      in
      Stdlib.min (buckets - 1) (key - first_key + 1)

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    h.bounds.(0) <- h.bounds.(0) +. v;
    if v < h.bounds.(1) then h.bounds.(1) <- v;
    if v > h.bounds.(2) then h.bounds.(2) <- v

  let count h = h.n
  let sum h = h.bounds.(0)
  let mean h = if h.n = 0 then 0.0 else h.bounds.(0) /. float_of_int h.n
  let minimum h = if h.n = 0 then 0.0 else h.bounds.(1)
  let maximum h = if h.n = 0 then 0.0 else h.bounds.(2)

  (* The lower edge of bucket [i >= 1]. *)
  let lower i =
    Int64.float_of_bits
      (Int64.shift_left (Int64.of_int (first_key + i - 1)) (52 - sub_bits))

  (* Nearest rank, reported as the geometric middle of its bucket and
     clamped to the observed range: within 10% of the exact sample. *)
  let percentile h p =
    if h.n = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank =
        Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n)))
      in
      let rec find i seen =
        let seen = seen + h.counts.(i) in
        if seen >= rank || i = buckets - 1 then i else find (i + 1) seen
      in
      let i = find 0 0 in
      let v =
        if i = 0 then minimum h
        else if i = buckets - 1 then maximum h
        else sqrt (lower i *. lower (i + 1))
      in
      Float.max (minimum h) (Float.min (maximum h) v)
    end

  let pp ~unit ppf h =
    Format.fprintf ppf
      "n=%d mean=%.2f%s p50=%.2f%s p99=%.2f%s p999=%.2f%s max=%.2f%s" h.n
      (mean h) unit (percentile h 50.0) unit (percentile h 99.0) unit
      (percentile h 99.9) unit (maximum h) unit
end

type table = { columns : string list; mutable rows : string list list }

let table ~columns = { columns; rows = [] }
let row t cells = t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let width i =
    List.fold_left
      (fun acc r ->
        match List.nth_opt r i with
        | Some cell -> Stdlib.max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad w s = s ^ String.make (Stdlib.max 0 (w - String.length s)) ' ' in
  let line cells =
    String.concat "  " (List.mapi (fun i c -> pad (List.nth widths i) c) cells)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line t.columns :: sep :: List.map line rows)
