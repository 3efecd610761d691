type config = {
  lost_write_prob : float;
  torn_write_prob : float;
  crash_during_io_prob : float;
}

let none =
  { lost_write_prob = 0.0; torn_write_prob = 0.0; crash_during_io_prob = 0.0 }

let active c =
  c.lost_write_prob > 0.0 || c.torn_write_prob > 0.0
  || c.crash_during_io_prob > 0.0

(* FNV-1a-style fold (offset basis truncated to OCaml's 63-bit int) over
   64-bit little-endian words, then the trailing bytes one at a time, so
   every bit of every byte enters the sum at an eighth of the per-byte
   cost. [Int64.to_int] drops a word's bit 63, so that bit is added after
   the multiply. Each step [h -> ((h lxor w) * prime) + top] is a bijection
   on [h] (the prime is odd), and a single-bit change of the word changes
   either [w] or [top] alone, so two equal-length buffers that differ in
   any single bit always sum differently. [Hashtbl.hash] samples only a
   prefix of large buffers, which would let a torn tail slip through
   verification. Sums live in memory only (page-store frames, WAL
   records); no file format carries one. *)
let prime = 0x100000001b3
let basis = 0x3bf29ce484222325

let checksum_more h b =
  let n = Bytes.length b in
  let words = n land lnot 7 in
  let h = ref h in
  let i = ref 0 in
  while !i < words do
    let w = Bytes.get_int64_le b !i in
    h :=
      ((!h lxor Int64.to_int w) * prime)
      + Int64.to_int (Int64.shift_right_logical w 63);
    i := !i + 8
  done;
  for j = words to n - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b j)) * prime
  done;
  !h

let checksum b = checksum_more basis b

let tear rng ~intended ~prior =
  let len = Bytes.length intended in
  let out =
    match prior with
    | Some p when Bytes.length p = len -> Bytes.copy p
    | Some _ | None -> Bytes.make len '\000'
  in
  (* At least one byte written, at least one byte missing: a cut strictly
     inside the buffer (single-byte writes cannot tear). *)
  if len >= 2 then begin
    let cut = 1 + Kutil.Rng.int rng (len - 1) in
    Bytes.blit intended 0 out 0 cut
  end
  else Bytes.blit intended 0 out 0 len;
  out
