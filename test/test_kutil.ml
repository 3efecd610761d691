(* Unit and property tests for the kutil foundation library. *)

module U128 = Kutil.U128
module Gaddr = Kutil.Gaddr
module Rng = Kutil.Rng
module Codec = Kutil.Codec

let u128 = Alcotest.testable U128.pp U128.equal

(* ------------------------------- U128 ------------------------------ *)

let test_of_to_int () =
  Alcotest.(check int) "roundtrip" 12345 U128.(to_int (of_int 12345));
  Alcotest.(check int) "zero" 0 U128.(to_int zero);
  Alcotest.check_raises "negative" (Invalid_argument "U128.of_int: negative")
    (fun () -> ignore (U128.of_int (-1)))

let test_add_carry () =
  let a = U128.make ~hi:0L ~lo:(-1L) (* 2^64 - 1 *) in
  let b = U128.add a U128.one in
  Alcotest.check u128 "carry into hi" (U128.make ~hi:1L ~lo:0L) b;
  Alcotest.check u128 "sub undoes add" a (U128.sub b U128.one)

let test_sub_borrow () =
  let a = U128.make ~hi:1L ~lo:0L in
  let b = U128.sub a U128.one in
  Alcotest.check u128 "borrow from hi" (U128.make ~hi:0L ~lo:(-1L)) b

let test_wraparound () =
  Alcotest.check u128 "max + 1 = 0" U128.zero (U128.add U128.max_value U128.one);
  Alcotest.check u128 "0 - 1 = max" U128.max_value (U128.sub U128.zero U128.one)

let test_compare_unsigned () =
  (* hi = -1L is a huge unsigned value, not a negative one. *)
  let big = U128.make ~hi:(-1L) ~lo:0L in
  Alcotest.(check bool) "big > one" true (U128.compare big U128.one > 0);
  Alcotest.(check bool) "one < big" true (U128.compare U128.one big < 0);
  Alcotest.check u128 "min" U128.one (U128.min big U128.one);
  Alcotest.check u128 "max" big (U128.max big U128.one)

let test_mul_int () =
  Alcotest.check u128 "7 * 6" (U128.of_int 42) (U128.mul_int (U128.of_int 7) 6);
  let big = U128.make ~hi:0L ~lo:(-1L) in
  (* (2^64-1) * 2 = 2^65 - 2 *)
  Alcotest.check u128 "cross-limb carry"
    (U128.make ~hi:1L ~lo:(-2L))
    (U128.mul_int big 2);
  Alcotest.check u128 "by zero" U128.zero (U128.mul_int big 0)

let test_divmod () =
  let v = U128.of_int 1000003 in
  let q, r = U128.divmod_int v 4096 in
  Alcotest.(check int) "quotient" (1000003 / 4096) (U128.to_int q);
  Alcotest.(check int) "remainder" (1000003 mod 4096) r;
  (* Non power of two. *)
  let q, r = U128.divmod_int v 37 in
  Alcotest.(check int) "npot quotient" (1000003 / 37) (U128.to_int q);
  Alcotest.(check int) "npot remainder" (1000003 mod 37) r;
  (* Dividend above 64 bits. *)
  let huge = U128.make ~hi:5L ~lo:0L in
  let q, r = U128.divmod_int huge 2 in
  Alcotest.check u128 "hi shift" (U128.make ~hi:2L ~lo:0x8000000000000000L) q;
  Alcotest.(check int) "even" 0 r

let test_shift () =
  let v = U128.of_int 1 in
  Alcotest.check u128 "shl 64" (U128.make ~hi:1L ~lo:0L) (U128.shift_left v 64);
  Alcotest.check u128 "shl then shr" v
    (U128.shift_right (U128.shift_left v 100) 100);
  Alcotest.check u128 "shl 128 = 0" U128.zero (U128.shift_left v 128);
  Alcotest.check u128 "cross-boundary"
    (U128.make ~hi:0x10L ~lo:0L)
    (U128.shift_left (U128.of_int 0x100) 60)

let test_hex () =
  let v = U128.make ~hi:0xDEADL ~lo:0xBEEFL in
  Alcotest.check u128 "hex roundtrip" v (U128.of_hex (U128.to_hex v));
  Alcotest.check u128 "0x prefix" (U128.of_int 255) (U128.of_hex "0xff");
  Alcotest.(check string) "compact" "0x2a" (U128.to_string (U128.of_int 42));
  Alcotest.check_raises "empty" (Invalid_argument "U128.of_hex: bad length")
    (fun () -> ignore (U128.of_hex ""))

let test_distance () =
  let a = U128.of_int 100 and b = U128.of_int 260 in
  Alcotest.check u128 "forward" (U128.of_int 160) (U128.distance a b);
  Alcotest.check u128 "backward" (U128.of_int 160) (U128.distance b a)

(* qcheck properties over random 128-bit values *)

let arb_u128 =
  QCheck.make
    ~print:(fun v -> U128.to_string v)
    QCheck.Gen.(
      map2 (fun hi lo -> U128.make ~hi ~lo) int64 int64)

let prop_add_sub =
  QCheck.Test.make ~name:"u128 add/sub inverse" ~count:500
    (QCheck.pair arb_u128 arb_u128)
    (fun (a, b) -> U128.equal a (U128.sub (U128.add a b) b))

let prop_add_commutes =
  QCheck.Test.make ~name:"u128 add commutes" ~count:500
    (QCheck.pair arb_u128 arb_u128)
    (fun (a, b) -> U128.equal (U128.add a b) (U128.add b a))

let prop_compare_total =
  QCheck.Test.make ~name:"u128 compare antisymmetric" ~count:500
    (QCheck.pair arb_u128 arb_u128)
    (fun (a, b) -> U128.compare a b = -U128.compare b a)

let prop_divmod =
  QCheck.Test.make ~name:"u128 divmod reconstructs" ~count:500
    (QCheck.pair arb_u128 (QCheck.int_range 1 1_000_000))
    (fun (v, n) ->
      let q, r = U128.divmod_int v n in
      r >= 0 && r < n && U128.equal v (U128.add (U128.mul_int q n) (U128.of_int r)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"u128 hex roundtrip" ~count:500 arb_u128 (fun v ->
      U128.equal v (U128.of_hex (U128.to_hex v)))

(* The masked page arithmetic and the offset range tests against the
   arithmetic they replace: division and multiplication, [add] of an
   [of_int], and comparisons against a built end address. *)

(* Anywhere in the 128-bit space, a low word just below 2^64 (so adding
   carries into [hi]), or a small non-zero [hi]. *)
let gen_addr =
  QCheck.Gen.(
    oneof
      [ map2 (fun hi lo -> U128.make ~hi ~lo) int64 int64;
        map2
          (fun hi d -> U128.make ~hi ~lo:(Int64.sub (-1L) (Int64.of_int d)))
          int64 (int_bound 1_000_000);
        map2
          (fun hi lo -> U128.make ~hi:(Int64.of_int hi) ~lo)
          (int_range 1 16) int64 ])

(* 4 KiB to 1 MiB. *)
let gen_page_size = QCheck.Gen.map (fun k -> 1 lsl k) (QCheck.Gen.int_range 12 20)

let gen_offset =
  QCheck.Gen.(oneof [ int_bound 100_000; map (fun n -> n land max_int) int ])

let print_addr_int (a, n) = Printf.sprintf "(%s, %d)" (U128.to_string a) n

let prop_page_floor_offset =
  QCheck.Test.make ~name:"gaddr page floor/offset" ~count:1000
    (QCheck.make ~print:print_addr_int (QCheck.Gen.pair gen_addr gen_page_size))
    (fun (a, page_size) ->
      let q, r = U128.divmod_int a page_size in
      U128.equal (Gaddr.page_floor a ~page_size) (U128.mul_int q page_size)
      && Gaddr.page_offset a ~page_size = r)

let prop_add_int =
  QCheck.Test.make ~name:"u128 add_int" ~count:1000
    (QCheck.make ~print:print_addr_int (QCheck.Gen.pair gen_addr gen_offset))
    (fun (a, n) -> U128.equal (U128.add_int a n) (U128.add a (U128.of_int n)))

let prop_offset_from =
  QCheck.Test.make ~name:"u128 offset_from" ~count:1000
    (QCheck.pair arb_u128 arb_u128)
    (fun (base, a) ->
      let d = U128.sub a base in
      let expect =
        if U128.compare a base >= 0 && U128.compare d (U128.of_int max_int) <= 0
        then U128.to_int d
        else -1
      in
      U128.offset_from ~base a = expect)

(* A region that does not wrap past 2^128 - 1, and probes around it:
   anywhere, inside, just below its base, exactly at its end and on the
   last byte. *)
let gen_region_probe =
  QCheck.Gen.(
    gen_addr >>= fun a ->
    gen_page_size >>= fun page_size ->
    int_range 1 64 >>= fun pages ->
    let a = if a.U128.hi = -1L then U128.make ~hi:0L ~lo:a.U128.lo else a in
    let base = Gaddr.page_floor a ~page_size in
    let region =
      Khazana.Region.make ~base ~len:(pages * page_size)
        ~attr:(Khazana.Attr.make ~page_size ~owner:0 ())
        ~home:0
    in
    let len = region.Khazana.Region.len in
    let end_ = Khazana.Region.end_ region in
    oneof
      [ gen_addr;
        map (fun k -> Gaddr.add_int base k) (int_bound (2 * len));
        map (fun k -> U128.sub base (U128.of_int (k + 1))) (int_bound len);
        return end_;
        return (U128.sub end_ U128.one) ]
    >>= fun probe -> return (region, probe))

let print_region_probe (r, a) =
  Format.asprintf "%a at %s" Khazana.Region.pp r (U128.to_string a)

let ref_contains r a =
  U128.compare r.Khazana.Region.base a <= 0
  && U128.compare a (Khazana.Region.end_ r) < 0

let prop_region_contains =
  QCheck.Test.make ~name:"region contains" ~count:1000
    (QCheck.make ~print:print_region_probe gen_region_probe)
    (fun (r, a) -> Khazana.Region.contains r a = ref_contains r a)

(* Lengths from 0 up to twice the region, and ranges ending exactly at
   the region's end. *)
let prop_region_contains_range =
  QCheck.Test.make ~name:"region contains_range" ~count:1000
    (QCheck.make
       ~print:(fun ((r, a), n) -> print_region_probe (r, a) ^ " len " ^ string_of_int n)
       QCheck.Gen.(
         gen_region_probe >>= fun (r, a) ->
         let rlen = r.Khazana.Region.len in
         let to_end = U128.sub (Khazana.Region.end_ r) a in
         let exact =
           if U128.compare to_end (U128.of_int rlen) <= 0 then [ return (U128.to_int to_end) ]
           else []
         in
         oneof ([ return 0; int_bound (2 * rlen) ] @ exact) >>= fun n ->
         return ((r, a), n)))
    (fun ((r, a), n) ->
      let expect =
        n >= 0 && ref_contains r a
        && (n = 0 || ref_contains r (U128.add a (U128.of_int (n - 1))))
      in
      Khazana.Region.contains_range r a ~len:n = expect)

(* ------------------------------ Gaddr ------------------------------ *)

let test_page_math () =
  let a = Gaddr.of_int 10_000 in
  Alcotest.check u128 "floor" (Gaddr.of_int 8192)
    (Gaddr.page_floor a ~page_size:4096);
  Alcotest.(check int) "offset" (10_000 - 8192)
    (Gaddr.page_offset a ~page_size:4096);
  Alcotest.(check bool) "aligned" true
    (Gaddr.is_page_aligned (Gaddr.of_int 8192) ~page_size:4096)

let test_pages_in () =
  let pages = Gaddr.pages_in (Gaddr.of_int 4000) ~len:5000 ~page_size:4096 in
  Alcotest.(check int) "spans three pages" 3 (List.length pages);
  Alcotest.check u128 "first" Gaddr.zero (List.hd pages);
  Alcotest.(check int) "empty" 0
    (List.length (Gaddr.pages_in Gaddr.zero ~len:0 ~page_size:4096));
  (* exactly one page *)
  Alcotest.(check int) "one page" 1
    (List.length (Gaddr.pages_in (Gaddr.of_int 4096) ~len:4096 ~page_size:4096))

let test_diff () =
  Alcotest.(check int) "diff" 42
    (Gaddr.diff (Gaddr.of_int 142) (Gaddr.of_int 100));
  Alcotest.check_raises "negative" (Invalid_argument "Gaddr.diff: negative")
    (fun () -> ignore (Gaddr.diff (Gaddr.of_int 1) (Gaddr.of_int 2)))

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let child = Rng.split a in
  let v1 = Rng.int64 child in
  (* Re-derive: same parent seed, same split point -> same child stream. *)
  let a' = Rng.create ~seed:7 in
  let child' = Rng.split a' in
  Alcotest.(check int64) "derived stream deterministic" v1 (Rng.int64 child')

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_exponential_positive () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential r ~mean:5.0 > 0.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------- Heap ------------------------------ *)

let test_heap_sorts () =
  let h = Kutil.Heap.create ~cmp:compare in
  List.iter (Kutil.Heap.push h) [ 5; 1; 4; 1; 5; 9; 2; 6 ];
  let rec drain acc =
    match Kutil.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 4; 5; 5; 6; 9 ] (drain [])

let test_heap_stability_via_seq () =
  (* Equal priorities break ties by an explicit sequence number. *)
  let h = Kutil.Heap.create ~cmp:(fun (p1, s1, _) (p2, s2, _) ->
      match compare p1 p2 with 0 -> compare s1 s2 | c -> c)
  in
  List.iteri (fun i label -> Kutil.Heap.push h (1, i, label)) [ "a"; "b"; "c" ];
  let pop () = match Kutil.Heap.pop h with Some (_, _, l) -> l | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "fifo for equal prio" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_empty () =
  let h = Kutil.Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Kutil.Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Kutil.Heap.pop h);
  Alcotest.(check (option int)) "peek empty" None (Kutil.Heap.peek h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Kutil.Heap.create ~cmp:compare in
      List.iter (Kutil.Heap.push h) xs;
      let rec drain acc =
        match Kutil.Heap.pop h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------- Codec ----------------------------- *)

let test_codec_roundtrip () =
  let e = Codec.encoder () in
  Codec.u8 e 200;
  Codec.u16 e 65535;
  Codec.u32 e 0xFFFF_FFFF;
  Codec.u64 e (-1L);
  Codec.int e (-42);
  Codec.u128 e (U128.make ~hi:1L ~lo:2L);
  Codec.bool e true;
  Codec.string e "hello";
  Codec.bytes e (Bytes.of_string "\x00\x01\x02");
  Codec.list e (fun x -> Codec.int e x) [ 1; 2; 3 ];
  Codec.option e (fun s -> Codec.string e s) (Some "x");
  Codec.option e (fun s -> Codec.string e s) None;
  let d = Codec.decoder (Codec.to_bytes e) in
  Alcotest.(check int) "u8" 200 (Codec.read_u8 d);
  Alcotest.(check int) "u16" 65535 (Codec.read_u16 d);
  Alcotest.(check int) "u32" 0xFFFF_FFFF (Codec.read_u32 d);
  Alcotest.(check int64) "u64" (-1L) (Codec.read_u64 d);
  Alcotest.(check int) "int" (-42) (Codec.read_int d);
  Alcotest.check u128 "u128" (U128.make ~hi:1L ~lo:2L) (Codec.read_u128 d);
  Alcotest.(check bool) "bool" true (Codec.read_bool d);
  Alcotest.(check string) "string" "hello" (Codec.read_string d);
  Alcotest.(check string) "bytes" "\x00\x01\x02"
    (Bytes.to_string (Codec.read_bytes d));
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Codec.read_list d (fun () -> Codec.read_int d));
  Alcotest.(check (option string)) "some" (Some "x")
    (Codec.read_option d (fun () -> Codec.read_string d));
  Alcotest.(check (option string)) "none" None
    (Codec.read_option d (fun () -> Codec.read_string d));
  Alcotest.(check int) "drained" 0 (Codec.remaining d)

let test_codec_underflow () =
  let d = Codec.decoder (Bytes.create 2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Codec.read_u64 d);
       false
     with Codec.Decode_error _ -> true)

let test_codec_bad_tags () =
  let e = Codec.encoder () in
  Codec.u8 e 7;
  let d = Codec.decoder (Codec.to_bytes e) in
  Alcotest.(check bool) "bad bool" true
    (try
       ignore (Codec.read_bool d);
       false
     with Codec.Decode_error _ -> true)

let raises_decode f =
  try
    ignore (f ());
    false
  with Codec.Decode_error _ -> true

(* A slice decoder answers only for its slice: length prefixes that the
   backing bytes could satisfy, but the slice cannot, are malformed. *)
let test_codec_slice_bounds () =
  let e = Codec.encoder () in
  Codec.u8 e 0xAA;
  Codec.string e "hello world";
  Codec.list e (fun x -> Codec.u8 e x) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let b = Codec.to_bytes e in
  (* the string's slice keeps its prefix and 5 of its 11 bytes *)
  let d = Codec.decoder_sub b ~off:1 ~len:(4 + 5) in
  Alcotest.(check int) "remaining is the slice" 9 (Codec.remaining d);
  Alcotest.(check bool) "string past slice end" true
    (raises_decode (fun () -> Codec.read_string d));
  (* the list's slice keeps its count and 3 of its 8 elements *)
  let list_off = 1 + 4 + 11 in
  let d = Codec.decoder_sub b ~off:list_off ~len:(4 + 3) in
  Alcotest.(check bool) "list count past slice end" true
    (raises_decode (fun () -> Codec.read_list d (fun () -> Codec.read_u8 d)));
  let d = Codec.decoder_sub b ~off:0 ~len:1 in
  Alcotest.(check int) "first byte" 0xAA (Codec.read_u8 d);
  Alcotest.(check bool) "u8 past slice end" true
    (raises_decode (fun () -> Codec.read_u8 d));
  let d = Codec.decoder_sub b ~off:list_off ~len:(Bytes.length b - list_off) in
  Alcotest.(check (list int)) "whole list slice decodes"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (Codec.read_list d (fun () -> Codec.read_u8 d));
  Alcotest.(check bool) "slice outside the buffer" true
    (try
       ignore (Codec.decoder_sub b ~off:1 ~len:(Bytes.length b));
       false
     with Invalid_argument _ -> true)

(* Resetting an encoder and reusing it — after it grew for a bigger
   message — yields the same bytes a fresh encoder would. *)
let test_codec_reset_reuse () =
  let encode e =
    Codec.u32 e 0;
    Codec.int e 42;
    Codec.string e "small";
    Codec.patch_u32 e ~at:0 (Codec.length e - 4)
  in
  let fresh = Codec.encoder () in
  encode fresh;
  let reused = Codec.encoder () in
  Codec.bytes reused (Bytes.make 10_000 'x');
  Codec.reset reused;
  Alcotest.(check int) "reset empties" 0 (Codec.length reused);
  encode reused;
  Alcotest.(check string) "same bytes"
    (Bytes.to_string (Codec.to_bytes fresh))
    (Bytes.to_string (Codec.to_bytes reused));
  Alcotest.(check string) "contents prefix is the encoding"
    (Bytes.to_string (Codec.to_bytes fresh))
    (Bytes.sub_string (Codec.contents reused) 0 (Codec.length reused));
  Alcotest.(check int) "patched length" (Codec.length fresh - 4)
    (Codec.read_u32 (Codec.decoder (Codec.to_bytes fresh)))

(* The socket transport's frames are exactly [u32 length ^ payload], where
   payload is what a fresh encoder produces for the same envelope: one
   reused encoder with the length patched in place changes no wire byte.
   A raw listener stands in for node 1 and captures what node 0 writes. *)
let test_codec_unix_frames () =
  let module Wire = Khazana.Wire in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kcodec-frames-%d-%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let raw_path = Filename.concat dir "node-1.sock" in
  Unix.bind raw (Unix.ADDR_UNIX raw_path);
  Unix.listen raw 1;
  let topology = Knet.Topology.symmetric ~nodes_per_cluster:2 ~clusters:1 in
  let ep = Wire.Sockets.create ~dir ~id:0 topology in
  Fun.protect
    ~finally:(fun () ->
      Wire.Sockets.close ep;
      Unix.close raw;
      (try Unix.unlink raw_path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let flush c version =
        Wire.Page_flush
          {
            page = Gaddr.of_int 4096;
            region_base = Gaddr.of_int 0;
            data = Bytes.make 4096 c;
            version;
          }
      in
      let msgs = [ flush 'p' 3; Wire.Ping; flush 'q' 4 ] in
      List.iteri
        (fun i m ->
          Wire.Transport.notify (Wire.Sockets.pack ep) ~src:0 ~dst:1
            ~span:(i + 1) m)
        msgs;
      let expected =
        String.concat ""
          (List.mapi
             (fun i m ->
               let e = Codec.encoder () in
               Codec.u8 e 3 (* oneway envelope *);
               Codec.u32 e 0 (* src *);
               Codec.int e (i + 1);
               Wire.encode_request e m;
               let payload = Codec.to_bytes e in
               let header = Bytes.create 4 in
               Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
               Bytes.to_string header ^ Bytes.to_string payload)
             msgs)
      in
      (* notify writes synchronously: every byte is already queued *)
      let fd, _ = Unix.accept raw in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let got = Bytes.create (String.length expected) in
      let rec fill off =
        if off < Bytes.length got then
          match Unix.read fd got off (Bytes.length got - off) with
          | 0 -> Alcotest.fail "sender closed early"
          | n -> fill (off + n)
      in
      fill 0;
      Unix.close fd;
      Alcotest.(check string) "wire bytes" expected (Bytes.to_string got))

(* ------------------------------- Stats ----------------------------- *)

let test_stats_summary () =
  let s = Kutil.Stats.summary () in
  List.iter (Kutil.Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "n" 5 (Kutil.Stats.samples s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Kutil.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Kutil.Stats.minimum s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Kutil.Stats.maximum s);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Kutil.Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Kutil.Stats.percentile s 100.0);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Kutil.Stats.stddev s)

let test_stats_empty () =
  let s = Kutil.Stats.summary () in
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Kutil.Stats.mean s);
  Alcotest.(check (float 0.0)) "p99 empty" 0.0 (Kutil.Stats.percentile s 99.0)

let test_stats_counter () =
  let c = Kutil.Stats.counter () in
  Kutil.Stats.incr c;
  Kutil.Stats.incr ~by:5 c;
  Alcotest.(check int) "count" 6 (Kutil.Stats.count c);
  Kutil.Stats.reset_counter c;
  Alcotest.(check int) "reset" 0 (Kutil.Stats.count c)

(* Histogram percentiles land within 10% of the exact nearest-rank
   sample; count, mean and the extremes are exact. *)
let test_stats_histogram () =
  let module H = Kutil.Stats.Histogram in
  let h = H.create () in
  let s = Kutil.Stats.summary () in
  for i = 0 to 9_999 do
    let v = float_of_int (i * 7919 mod 10_000) *. 0.01 in
    H.add h v;
    Kutil.Stats.add s v
  done;
  Alcotest.(check int) "count" 10_000 (H.count h);
  Alcotest.(check (float 1e-6)) "mean" (Kutil.Stats.mean s) (H.mean h);
  Alcotest.(check (float 0.0)) "min" 0.0 (H.minimum h);
  Alcotest.(check (float 0.0)) "max" (Kutil.Stats.maximum s) (H.maximum h);
  List.iter
    (fun p ->
      let exact = Kutil.Stats.percentile s p and got = H.percentile h p in
      if Float.abs (got -. exact) > 0.1 *. exact then
        Alcotest.failf "p%g: %g, exact %g" p got exact)
    [ 50.0; 90.0; 99.0; 99.9; 100.0 ];
  Alcotest.(check (float 0.0)) "zeros" 0.0 (H.percentile h 0.001);
  H.add h 1e12;
  Alcotest.(check (float 0.0)) "beyond the last bucket" 1e12
    (H.percentile h 100.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (H.percentile (H.create ()) 99.0)

let test_stats_table () =
  let t = Kutil.Stats.table ~columns:[ "a"; "bb" ] in
  Kutil.Stats.row t [ "xxx"; "y" ];
  let rendered = Kutil.Stats.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "a")

(* Decoders over attacker-controlled bytes must fail closed: any input
   either decodes or raises Decode_error — never an unexpected exception. *)
let prop_decoder_fails_closed =
  QCheck.Test.make ~name:"decoders fail closed on random bytes" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      let b = Bytes.of_string s in
      let probe f = try ignore (f ()) with Codec.Decode_error _ -> () in
      probe (fun () -> Codec.read_u128 (Codec.decoder b));
      probe (fun () -> Codec.read_string (Codec.decoder b));
      probe (fun () -> Codec.read_list (Codec.decoder b) (fun () -> ()));
      probe (fun () ->
          Codec.read_option (Codec.decoder b) (fun () ->
              Codec.read_u64 (Codec.decoder b)));
      true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "kutil"
    [
      ( "u128",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "add carry" `Quick test_add_carry;
          Alcotest.test_case "sub borrow" `Quick test_sub_borrow;
          Alcotest.test_case "wraparound" `Quick test_wraparound;
          Alcotest.test_case "unsigned compare" `Quick test_compare_unsigned;
          Alcotest.test_case "mul_int" `Quick test_mul_int;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "shifts" `Quick test_shift;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "distance" `Quick test_distance;
        ] );
      qsuite "u128-properties"
        [ prop_add_sub; prop_add_commutes; prop_compare_total; prop_divmod;
          prop_hex_roundtrip; prop_page_floor_offset; prop_add_int;
          prop_offset_from; prop_region_contains; prop_region_contains_range ];
      ( "gaddr",
        [
          Alcotest.test_case "page math" `Quick test_page_math;
          Alcotest.test_case "pages_in" `Quick test_pages_in;
          Alcotest.test_case "diff" `Quick test_diff;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "tie-break by seq" `Quick test_heap_stability_via_seq;
          Alcotest.test_case "empty" `Quick test_heap_empty;
        ] );
      qsuite "heap-properties" [ prop_heap_sorts ];
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "underflow" `Quick test_codec_underflow;
          Alcotest.test_case "bad tags" `Quick test_codec_bad_tags;
          Alcotest.test_case "slice bounds" `Quick test_codec_slice_bounds;
          Alcotest.test_case "reset and reuse" `Quick test_codec_reset_reuse;
          Alcotest.test_case "unix frames" `Quick test_codec_unix_frames;
          QCheck_alcotest.to_alcotest prop_decoder_fails_closed;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "counter" `Quick test_stats_counter;
          Alcotest.test_case "table" `Quick test_stats_table;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
    ]
