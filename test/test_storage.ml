(* Tests for the two-tier local page store. *)

module Store = Kstorage.Page_store
module Gaddr = Kutil.Gaddr
module Time = Ksim.Time

let page n = Gaddr.of_int (n * 4096)
let data s = Bytes.of_string s

let in_fiber eng f =
  let result = ref None in
  Ksim.Fiber.spawn eng (fun () -> result := Some (f ()));
  Ksim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "fiber did not finish"

let mk ?(ram = 4) ?(disk = 16) () =
  let eng = Ksim.Engine.create () in
  (eng, Store.create eng (Store.config ~ram_pages:ram ~disk_pages:disk ()))

let test_write_read () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "hello") ~dirty:false;
      match Store.read s (page 1) with
      | Some b -> Alcotest.(check string) "content" "hello" (Bytes.to_string b)
      | None -> Alcotest.fail "missing");
  Alcotest.(check int) "one ram page" 1 (Store.ram_used s)

let test_read_returns_copy () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "abc") ~dirty:false;
      (match Store.read s (page 1) with
       | Some b -> Bytes.set b 0 'X'
       | None -> Alcotest.fail "missing");
      match Store.read s (page 1) with
      | Some b -> Alcotest.(check string) "unchanged" "abc" (Bytes.to_string b)
      | None -> Alcotest.fail "missing")

let test_miss () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Alcotest.(check (option unit)) "miss" None
        (Option.map ignore (Store.read s (page 9))));
  Alcotest.(check int) "counted" 1 (Store.stats s).misses

let test_ram_latency_vs_disk () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      (* Push page 1 to disk by filling RAM. *)
      Store.write s (page 2) (data "b") ~dirty:false;
      let t0 = Ksim.Engine.now eng in
      ignore (Store.read s (page 2));
      let ram_cost = Ksim.Engine.now eng - t0 in
      let t1 = Ksim.Engine.now eng in
      ignore (Store.read s (page 1));
      let disk_cost = Ksim.Engine.now eng - t1 in
      Alcotest.(check bool) "disk much slower" true (disk_cost > 100 * ram_cost))

let test_eviction_to_disk () =
  let eng, s = mk ~ram:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "one") ~dirty:false;
      Store.write s (page 2) (data "two") ~dirty:false;
      Store.write s (page 3) (data "three") ~dirty:false;
      Alcotest.(check int) "ram capped" 2 (Store.ram_used s);
      Alcotest.(check int) "victim on disk" 1 (Store.disk_used s);
      Alcotest.(check bool) "lru victim" true (Store.where s (page 1) = Some Store.Disk);
      (* Disk hit promotes back into RAM. *)
      match Store.read s (page 1) with
      | Some b ->
        Alcotest.(check string) "survived" "one" (Bytes.to_string b);
        Alcotest.(check bool) "promoted" true (Store.where s (page 1) = Some Store.Ram)
      | None -> Alcotest.fail "lost");
  let st = Store.stats s in
  Alcotest.(check bool) "evictions counted" true (st.ram_evictions >= 1);
  Alcotest.(check int) "disk hit" 1 st.disk_hits

let test_pinned_not_victimised () =
  let eng, s = mk ~ram:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "pinned") ~dirty:false;
      Store.pin s (page 1);
      Store.write s (page 2) (data "b") ~dirty:false;
      Store.write s (page 3) (data "c") ~dirty:false;
      Store.write s (page 4) (data "d") ~dirty:false;
      Alcotest.(check bool) "pinned stays in ram" true
        (Store.where s (page 1) = Some Store.Ram);
      Store.unpin s (page 1);
      Store.write s (page 5) (data "e") ~dirty:false;
      Store.write s (page 6) (data "f") ~dirty:false;
      Alcotest.(check bool) "unpinned can move" true
        (Store.where s (page 1) <> Some Store.Ram))

let test_evict_hook_on_disk_overflow () =
  let eng, s = mk ~ram:1 ~disk:2 () in
  let evicted = ref [] in
  Store.set_evict_hook s (fun addr _bytes ~dirty -> evicted := (addr, dirty) :: !evicted);
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "1") ~dirty:true;
      Store.write s (page 2) (data "2") ~dirty:false;
      Store.write s (page 3) (data "3") ~dirty:false;
      Store.write s (page 4) (data "4") ~dirty:false);
  (* ram=1, disk=2: the fourth write must push one page off the disk. *)
  Alcotest.(check bool) "hook called" true (List.length !evicted >= 1);
  let st = Store.stats s in
  Alcotest.(check bool) "writeback counted for dirty" true
    (st.writebacks >= if List.exists snd !evicted then 1 else 0)

let test_dirty_tracking () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "x") ~dirty:true;
      Alcotest.(check bool) "dirty" true (Store.is_dirty s (page 1));
      Store.mark_clean s (page 1);
      Alcotest.(check bool) "clean" false (Store.is_dirty s (page 1));
      (* Dirty bit is sticky across clean writes. *)
      Store.write s (page 1) (data "y") ~dirty:true;
      Store.write s (page 1) (data "z") ~dirty:false;
      Alcotest.(check bool) "sticky" true (Store.is_dirty s (page 1)))

let test_immediate_ops () =
  let _eng, s = mk () in
  (* No fiber needed: immediate ops never sleep. *)
  Store.write_immediate s (page 1) (data "imm") ~dirty:false;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "content" "imm" (Bytes.to_string b)
   | None -> Alcotest.fail "missing");
  Alcotest.(check (option unit)) "absent" None
    (Option.map ignore (Store.read_immediate s (page 2)))

let test_drop () =
  let eng, s = mk () in
  in_fiber eng (fun () -> Store.write s (page 1) (data "x") ~dirty:true);
  Store.drop s (page 1);
  Alcotest.(check (option unit)) "gone" None
    (Option.map ignore (Store.read_immediate s (page 1)))

let test_crash_loses_ram_keeps_disk () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "old") ~dirty:false;
      Store.write s (page 2) (data "new") ~dirty:false);
  (* page 1 is on disk, page 2 in RAM. *)
  Store.crash s;
  Alcotest.(check bool) "ram gone" true (Store.where s (page 2) = None);
  Alcotest.(check bool) "disk survives" true (Store.where s (page 1) = Some Store.Disk)

let test_pages_listing () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      Store.write s (page 2) (data "b") ~dirty:false);
  let pages = List.sort Gaddr.compare (Store.pages s) in
  Alcotest.(check int) "two pages" 2 (List.length pages);
  Alcotest.(check bool) "page1 listed" true
    (List.exists (Gaddr.equal (page 1)) pages)

(* ------------------------- disk fault model ------------------------ *)

let all_faults =
  {
    Kstorage.Disk_fault.lost_write_prob = 1.0;
    torn_write_prob = 0.0;
    crash_during_io_prob = 0.0;
  }

let torn_faults = { all_faults with Kstorage.Disk_fault.torn_write_prob = 1.0 }

let test_lost_unsynced_write_rolls_back () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  Store.flush_immediate s (page 1);
  (* The v2 flush missed the sync barrier: crash rolls it back to v1. *)
  Store.crash s;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "rolled back" "v1" (Bytes.to_string b)
   | None -> Alcotest.fail "durable copy lost");
  Alcotest.(check bool) "loss counted" true ((Store.stats s).lost_writes >= 1)

let test_never_synced_write_vanishes () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "only") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  Alcotest.(check (option unit)) "no prior durable content" None
    (Option.map ignore (Store.read_immediate s (page 1)))

let test_sync_barrier_protects () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "safe") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "survived" "safe" (Bytes.to_string b)
   | None -> Alcotest.fail "synced write lost")

let test_torn_write_never_served () =
  let _eng, s = mk () in
  Store.set_faults s torn_faults;
  Store.write_immediate s (page 1) (data "TORNTORN") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  Alcotest.(check bool) "tear recorded" true ((Store.stats s).torn_writes >= 1);
  (* The torn image is on disk but must read as a miss, never as data. *)
  Alcotest.(check (option unit)) "torn not served" None
    (Option.map ignore (Store.read_immediate s (page 1)));
  Alcotest.(check bool) "detection counted" true
    ((Store.stats s).torn_detected >= 1)

let test_scrub_drops_torn () =
  let _eng, s = mk () in
  Store.set_faults s torn_faults;
  Store.write_immediate s (page 1) (data "TORNTORN") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.write_immediate s (page 2) (data "fine") ~dirty:true;
  Store.flush_immediate s (page 2);
  Store.sync s;
  Store.write_immediate s (page 1) (data "overwrit") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  let dropped = Store.scrub s in
  Alcotest.(check int) "one torn frame dropped" 1 dropped;
  (match Store.read_immediate s (page 2) with
   | Some b -> Alcotest.(check string) "clean page intact" "fine" (Bytes.to_string b)
   | None -> Alcotest.fail "clean synced page lost")

let test_crash_clears_pins () =
  let eng, s = mk ~ram:1 ~disk:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      Store.write s (page 2) (data "b") ~dirty:false);
  (* page 1 demoted to disk; pin it there, then crash: the pinning fiber
     is dead, so the pin must die too or the page is stuck forever. *)
  Store.pin s (page 1);
  Store.crash s;
  in_fiber eng (fun () ->
      Store.write s (page 3) (data "c") ~dirty:false;
      Store.write s (page 4) (data "d") ~dirty:false;
      Store.write s (page 5) (data "e") ~dirty:false);
  Alcotest.(check bool) "page 1 was evictable after crash" true
    (Store.where s (page 1) = None);
  (* Symmetry: pin and unpin of a non-resident page are both no-ops. *)
  Store.pin s (page 99);
  Store.unpin s (page 99)

(* Regression: promoting a disk hit into RAM must keep the disk frame
   (inclusive caching). After a WAL checkpoint truncates a page's log
   records, that frame can be the only durable copy of a committed image;
   an exclusive promotion would turn it RAM-only and a crash would lose an
   acked write with nothing left to replay. *)
let test_promotion_keeps_durable_copy () =
  let eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "keep") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  (* RAM dies with the crash; only the synced disk frame remains. *)
  Store.crash s;
  in_fiber eng (fun () ->
      match Store.read s (page 1) with
      | Some b ->
        Alcotest.(check string) "disk hit" "keep" (Bytes.to_string b);
        Alcotest.(check bool) "promoted" true
          (Store.where s (page 1) = Some Store.Ram)
      | None -> Alcotest.fail "durable page unreadable");
  Store.crash s;
  match Store.read_immediate s (page 1) with
  | Some b ->
    Alcotest.(check string) "durable copy survived the promotion" "keep"
      (Bytes.to_string b)
  | None -> Alcotest.fail "promotion dropped the only durable copy"

(* Regression: overwriting a disk-resident page in RAM must keep the prior
   durable image on disk until the new content is flushed — a crash before
   the flush reverts to the old committed bytes instead of losing the page
   outright. *)
let test_overwrite_keeps_prior_durable () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  (* Page now lives only on disk; overwrite it without flushing. *)
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "RAM fronts disk" "v2" (Bytes.to_string b)
   | None -> Alcotest.fail "overwritten page unreadable");
  Store.crash s;
  match Store.read_immediate s (page 1) with
  | Some b ->
    Alcotest.(check string) "prior durable image survived" "v1"
      (Bytes.to_string b)
  | None -> Alcotest.fail "overwrite destroyed the durable copy"

let test_flush_immediate_single_writeback () =
  let eng, s = mk ~ram:1 ~disk:1 () in
  let dirty_evictions = ref 0 in
  Store.set_evict_hook s (fun _ _ ~dirty -> if dirty then incr dirty_evictions);
  Store.write_immediate s (page 1) (data "x") ~dirty:true;
  Store.flush_immediate s (page 1);
  Alcotest.(check int) "flush counted once" 1 (Store.stats s).writebacks;
  Alcotest.(check bool) "ram copy now clean" false (Store.is_dirty s (page 1));
  (* Demote the (now clean) RAM frame and push it off the disk: the bytes
     were already flushed, so no second writeback may happen. *)
  in_fiber eng (fun () ->
      Store.write s (page 2) (data "y") ~dirty:false;
      Store.write s (page 3) (data "z") ~dirty:false);
  Alcotest.(check int) "no double writeback" 1 (Store.stats s).writebacks;
  Alcotest.(check int) "hook saw no dirty page 1" 0 !dirty_evictions


(* --------------------- in-place partial writes --------------------- *)

let read_string s addr =
  match Store.read_immediate s addr with
  | Some b -> Bytes.to_string b
  | None -> Alcotest.fail "page missing"

let test_write_from_patches () =
  let eng, s = mk () in
  Store.write_immediate s (page 1) (data "aaaaaaaa") ~dirty:false;
  let ok =
    in_fiber eng (fun () ->
        Store.write_from s (page 1) ~off:2 (data "..XYZ") ~src_off:2 ~len:3)
  in
  Alcotest.(check bool) "written" true ok;
  Alcotest.(check string) "patched" "aaXYZaaa" (read_string s (page 1));
  Alcotest.(check bool) "dirty" true (Store.is_dirty s (page 1));
  let missed =
    in_fiber eng (fun () ->
        Store.write_from s (page 9) ~off:0 (data "x") ~src_off:0 ~len:1)
  in
  Alcotest.(check bool) "absent page not written" false missed;
  Alcotest.(check bool) "and not created" true (Store.where s (page 9) = None)

(* The in-place write charges exactly what the read-then-write it replaces
   charged: one RAM access each way on a RAM hit, a disk read plus a RAM
   write on a disk hit. *)
let test_write_from_latency () =
  let cost ~on_disk f =
    let eng, s = mk () in
    Store.write_immediate s (page 1) (data "v1v1") ~dirty:true;
    if on_disk then begin
      Store.flush_immediate s (page 1);
      Store.crash s
    end;
    in_fiber eng (fun () ->
        let t0 = Ksim.Engine.now eng in
        f s;
        Ksim.Engine.now eng - t0)
  in
  let old_way s =
    match Store.read s (page 1) with
    | Some b ->
      Bytes.blit_string "v2" 0 b 0 2;
      Store.write s (page 1) b ~dirty:true
    | None -> Alcotest.fail "missing"
  in
  let new_way s =
    ignore
      (Store.write_from s (page 1) ~off:0 (data "v2") ~src_off:0 ~len:2)
  in
  List.iter
    (fun on_disk ->
      Alcotest.(check int)
        (if on_disk then "disk hit" else "ram hit")
        (cost ~on_disk old_way) (cost ~on_disk new_way))
    [ false; true ]

(* [write_image] is charged as [write_from] on either tier, and installs
   the caller's image itself, dirty. *)
let test_write_image () =
  List.iter
    (fun on_disk ->
      let cost f =
        let eng, s = mk () in
        Store.write_immediate s (page 1) (data "v1v1") ~dirty:false;
        if on_disk then begin
          Store.flush_immediate s (page 1);
          Store.crash s
        end;
        in_fiber eng (fun () ->
            let t0 = Ksim.Engine.now eng in
            f s;
            (s, Ksim.Engine.now eng - t0))
      in
      let img = data "v2v1" in
      let s, charged =
        cost (fun s -> ignore (Store.write_image s (page 1) img))
      in
      let _, patched =
        cost (fun s ->
            ignore
              (Store.write_from s (page 1) ~off:0 (data "v2") ~src_off:0 ~len:2))
      in
      let tier = if on_disk then "disk hit" else "ram hit" in
      Alcotest.(check int) (tier ^ ": same charge") patched charged;
      Alcotest.(check bool) (tier ^ ": the image itself") true
        (match Store.read_immediate s (page 1) with
         | Some b -> b == img
         | None -> false);
      Alcotest.(check bool) (tier ^ ": dirty") true (Store.is_dirty s (page 1)))
    [ false; true ]

(* Installed images are never mutated: [write_immediate] keeps the very
   buffer it is given, and a later [write_from] installs a fresh image
   instead of reaching a buffer a reader already holds, or the disk frame
   a flush wrote. *)
let test_write_from_no_aliasing () =
  let eng, s = mk () in
  let src = data "aaaaaaaa" in
  Store.write_immediate s (page 1) src ~dirty:true;
  Alcotest.(check bool) "write_immediate takes the buffer itself" true
    (match Store.read_immediate s (page 1) with
     | Some b -> b == src
     | None -> false);
  Store.flush_immediate s (page 1);
  let immediate = Store.read_immediate s (page 1) in
  let into = Bytes.make 8 '-' in
  let read =
    in_fiber eng (fun () ->
        let r = Store.read s (page 1) in
        Alcotest.(check bool) "read_into" true
          (Store.read_into s (page 1) ~off:0 into ~dst_off:0 ~len:8);
        Alcotest.(check bool) "patched" true
          (Store.write_from s (page 1) ~off:0 (data "ZZZZ") ~src_off:0 ~len:4);
        r)
  in
  let show = Option.map Bytes.to_string in
  Alcotest.(check (option string)) "read result untouched" (Some "aaaaaaaa")
    (show read);
  Alcotest.(check (option string)) "read_immediate result untouched"
    (Some "aaaaaaaa") (show immediate);
  Alcotest.(check string) "read_into result untouched" "aaaaaaaa"
    (Bytes.to_string into);
  Alcotest.(check string) "store sees the patch" "ZZZZaaaa"
    (read_string s (page 1));
  (* Losing RAM exposes the flushed disk frame: still the old image. *)
  Store.crash s;
  Alcotest.(check string) "flushed disk frame untouched" "aaaaaaaa"
    (read_string s (page 1))

(* [flush_immediate] shares one buffer between the tiers; a RAM
   [write_from] afterwards must leave the disk frame's bytes alone. *)
let test_flushed_disk_frame_survives_write_from () =
  let eng, s = mk () in
  Store.write_immediate s (page 1) (data "aaaaaaaa") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  let flushed = Option.get (Store.read_immediate s (page 1)) in
  in_fiber eng (fun () ->
      Alcotest.(check bool) "first patch" true
        (Store.write_from s (page 1) ~off:0 (data "XX") ~src_off:0 ~len:2);
      Alcotest.(check bool) "second patch" true
        (Store.write_from s (page 1) ~off:6 (data "YY") ~src_off:0 ~len:2));
  Alcotest.(check string) "RAM has both patches" "XXaaaaYY"
    (read_string s (page 1));
  Alcotest.(check string) "shared buffer untouched" "aaaaaaaa"
    (Bytes.to_string flushed);
  Store.crash s;
  Alcotest.(check string) "disk frame keeps the flushed image" "aaaaaaaa"
    (read_string s (page 1))

(* Promotion fronts a disk frame with a RAM frame sharing its bytes, so the
   RAM-hit [write_from] that follows must not patch them where they lie. *)
let test_promoted_disk_frame_survives_write_from () =
  let eng, s = mk () in
  Store.write_immediate s (page 1) (data "v1v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  in_fiber eng (fun () ->
      ignore (Store.read s (page 1));
      Alcotest.(check bool) "promoted" true
        (Store.where s (page 1) = Some Store.Ram);
      Alcotest.(check bool) "patched on a RAM hit" true
        (Store.write_from s (page 1) ~off:0 (data "v2") ~src_off:0 ~len:2));
  Alcotest.(check int) "one disk hit, then RAM hits" 1 (Store.stats s).disk_hits;
  Alcotest.(check string) "RAM fronts disk" "v2v1" (read_string s (page 1));
  Store.crash s;
  Alcotest.(check string) "disk frame survived the patch" "v1v1"
    (read_string s (page 1))

(* A crash under [Disk_fault] rolls an unsynced flush back to the prior
   durable image, or tears it. Either way it replaces the disk frame's
   bytes and never writes into the buffer the RAM frame shared with it. *)
let test_crash_rolls_back_shared_page () =
  List.iter
    (fun (faults, what) ->
      let _eng, s = mk () in
      Store.set_faults s faults;
      Store.write_immediate s (page 1) (data "v1v1v1v1") ~dirty:true;
      Store.flush_immediate s (page 1);
      Store.sync s;
      let v2 = data "v2v2v2v2" in
      Store.write_immediate s (page 1) v2 ~dirty:true;
      Store.flush_immediate s (page 1);
      Store.crash s;
      Alcotest.(check string) (what ^ ": held buffer untouched") "v2v2v2v2"
        (Bytes.to_string v2);
      match Store.read_immediate s (page 1) with
      | Some b ->
        Alcotest.(check string) (what ^ ": prior durable image") "v1v1v1v1"
          (Bytes.to_string b)
      | None ->
        Alcotest.(check bool) (what ^ ": torn image dropped") true
          (faults == torn_faults && (Store.stats s).torn_detected = 1))
    [ (all_faults, "lost write"); (torn_faults, "torn write") ]

let test_write_from_promotes_disk_page () =
  let eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  Alcotest.(check bool) "disk only" true (Store.where s (page 1) = Some Store.Disk);
  let ok =
    in_fiber eng (fun () ->
        Store.write_from s (page 1) ~off:0 (data "v2") ~src_off:0 ~len:2)
  in
  Alcotest.(check bool) "written" true ok;
  Alcotest.(check bool) "promoted" true (Store.where s (page 1) = Some Store.Ram);
  Alcotest.(check string) "RAM fronts disk" "v2v1" (read_string s (page 1));
  (* Never flushed: a crash reverts to the durable image. *)
  Store.crash s;
  Alcotest.(check string) "old image after crash" "v1v1" (read_string s (page 1))

(* A crash inside either latency sleep (the read's, then the write's) must
   leave the post-crash tables as the crash left them. *)
let test_write_from_crash_mid_sleep () =
  let run ~on_disk ~crash_after =
    let eng, s = mk () in
    Store.write_immediate s (page 1) (data "abcd") ~dirty:false;
    if on_disk then begin
      Store.flush_immediate s (page 1);
      Store.sync s;
      Store.crash s
    end;
    let result = ref None in
    Ksim.Fiber.spawn eng (fun () ->
        result :=
          Some
            (Store.write_from s (page 1) ~off:0 (data "ZZ") ~src_off:0 ~len:2));
    ignore (Ksim.Engine.schedule eng ~after:crash_after (fun () -> Store.crash s));
    Ksim.Engine.run eng;
    (s, !result)
  in
  let ram = Store.ram_latency in
  (* RAM hit, crash during the read: nothing written, RAM stays empty. *)
  let s, r = run ~on_disk:false ~crash_after:(ram / 2) in
  Alcotest.(check (option bool)) "read sleep: not written" (Some false) r;
  Alcotest.(check int) "read sleep: RAM empty" 0 (Store.ram_used s);
  Alcotest.(check bool) "read sleep: page gone" true (Store.where s (page 1) = None);
  (* RAM hit, crash during the write: the patched frame died with RAM. *)
  let s, _ = run ~on_disk:false ~crash_after:(ram + (ram / 2)) in
  Alcotest.(check int) "write sleep: RAM empty" 0 (Store.ram_used s);
  Alcotest.(check bool) "write sleep: page gone" true (Store.where s (page 1) = None);
  (* Disk hit, crash during the disk read: no promotion, disk intact. *)
  let s, r = run ~on_disk:true ~crash_after:(Time.ms 1) in
  Alcotest.(check (option bool)) "disk read: not written" (Some false) r;
  Alcotest.(check int) "disk read: RAM empty" 0 (Store.ram_used s);
  Alcotest.(check bool) "disk read: still on disk" true
    (Store.where s (page 1) = Some Store.Disk);
  Alcotest.(check string) "disk read: image intact" "abcd" (read_string s (page 1))

(* Every bit of every byte enters the checksum, word-folded body and byte
   tail alike: flipping any one bit at sampled offsets changes the sum. *)
let test_checksum_every_bit () =
  let check_len n offsets =
    let b = Bytes.init n (fun i -> Char.chr ((i * 131 + 7) land 0xff)) in
    let base = Kstorage.Disk_fault.checksum b in
    List.iter
      (fun off ->
        for bit = 0 to 7 do
          let orig = Bytes.get b off in
          Bytes.set b off (Char.chr (Char.code orig lxor (1 lsl bit)));
          if Kstorage.Disk_fault.checksum b = base then
            Alcotest.failf "len %d: flipping bit %d of byte %d kept the sum" n
              bit off;
          Bytes.set b off orig
        done)
      offsets;
    Alcotest.(check int) "restored buffer, same sum" base
      (Kstorage.Disk_fault.checksum b)
  in
  (* Short buffers: every byte, so every tail length 0-7 is covered. *)
  for n = 1 to 17 do
    check_len n (List.init n Fun.id)
  done;
  let rng = Kutil.Rng.create ~seed:11 in
  let n = 4096 + 3 in
  let sampled = List.init 64 (fun _ -> Kutil.Rng.int rng n) in
  check_len n ([ 0; 1; 2; 3; 4; 2047; 4092; 4095; 4096; 4097; 4098 ] @ sampled);
  (* The last byte of every 64-bit word of a page: its bit 7 is the word's
     bit 63, which the fold adds apart from the rest. *)
  check_len 4096 (List.init 512 (fun k -> (8 * k) + 7))

(* ----------------------------- WAL --------------------------------- *)

module Wal = Kstorage.Wal

let mk_wal ?checkpoint_every ?(faults = Kstorage.Disk_fault.none) ?(seed = 7)
    () =
  let w = Wal.create ?checkpoint_every ~rng:(Kutil.Rng.create ~seed) () in
  Wal.set_faults w faults;
  w

let payload_string = function
  | Wal.Page (a, b) ->
    Printf.sprintf "page:%d:%s" (Gaddr.diff a Gaddr.zero) (Bytes.to_string b)
  | Wal.Note (tag, b) -> Printf.sprintf "note:%s:%s" tag (Bytes.to_string b)

let payload_strings r = List.map payload_string r.Wal.ops

let test_wal_commit_replay () =
  let w = mk_wal () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "one");
  Wal.log_note w tx "meta" (data "m");
  Wal.commit w tx;
  Wal.control w "ctl" (data "c");
  (* An intent without a commit must never surface. *)
  let dead = Wal.begin_tx w in
  Wal.log_page w dead (page 2) (data "ghost");
  let r = Wal.replay w in
  Alcotest.(check (list string)) "committed ops in order"
    [ "page:4096:one"; "note:meta:m"; "note:ctl:c" ]
    (payload_strings r);
  Alcotest.(check bool) "uncommitted discarded" true (r.Wal.discarded >= 1)

let test_wal_replay_idempotent () =
  let w = mk_wal () in
  for i = 1 to 5 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data (string_of_int i));
    Wal.commit w tx
  done;
  let r1 = Wal.replay w in
  let r2 = Wal.replay w in
  Alcotest.(check (list string)) "replay twice = once" (payload_strings r1)
    (payload_strings r2);
  (* Applying the op list is idempotent: payloads are plain sets. *)
  let apply ops =
    let t = Gaddr.Table.create 8 in
    List.iter
      (function
        | Wal.Page (a, b) -> Gaddr.Table.replace t a (Bytes.to_string b)
        | Wal.Note _ -> ())
      ops;
    List.sort compare (Gaddr.Table.fold (fun _ v acc -> v :: acc) t [])
  in
  Alcotest.(check (list string)) "apply twice = once" (apply r1.Wal.ops)
    (apply (r1.Wal.ops @ r1.Wal.ops))

let test_wal_checkpoint_truncates () =
  let w = mk_wal ~checkpoint_every:10 () in
  for i = 1 to 4 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data "d");
    Wal.commit w tx
  done;
  Alcotest.(check bool) "needs checkpoint" true (Wal.needs_checkpoint w);
  Wal.checkpoint w (data "SNAP");
  Alcotest.(check int) "truncated to one record" 1 (Wal.size w);
  Alcotest.(check bool) "no longer needs one" false (Wal.needs_checkpoint w);
  let r = Wal.replay w in
  Alcotest.(check (option string)) "snapshot survives" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "old ops truncated away" [] (payload_strings r)

let test_wal_crash_loses_unsynced_tail () =
  let w = mk_wal ~faults:all_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "kept");
  Wal.commit w tx;
  (* commit synced; these hint-grade records did not. *)
  Wal.control w ~sync:false "hint" (data "a");
  Wal.control w ~sync:false "hint" (data "b");
  Wal.crash w;
  let r = Wal.replay w in
  Alcotest.(check (list string)) "synced prefix only" [ "page:4096:kept" ]
    (payload_strings r);
  Alcotest.(check bool) "losses counted" true ((Wal.stats w).lost_records >= 1)

let test_wal_torn_frontier_record () =
  let w = mk_wal ~faults:torn_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "durable");
  Wal.commit w tx;
  Wal.control w ~sync:false "tail" (data "unsynced-payload");
  Wal.crash w;
  Alcotest.(check bool) "torn tail recorded" true ((Wal.stats w).torn_tail >= 1);
  let r = Wal.replay w in
  (* The torn record ends the readable log; the committed prefix is whole. *)
  Alcotest.(check (list string)) "prefix intact, torn dropped"
    [ "page:4096:durable" ] (payload_strings r);
  Alcotest.(check bool) "torn discarded" true (r.Wal.discarded >= 1)

(* Regression: a torn frontier record ends the readable log, so it must
   not be allowed to linger once recovery has replayed around it — records
   appended after it would be unreachable at the next replay. The owner's
   recovery checkpoint truncates it away; commits made after that must
   survive a second crash. *)
let test_wal_checkpoint_clears_torn_frontier () =
  let w = mk_wal ~faults:torn_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "old-data");
  Wal.commit w tx;
  Wal.control w ~sync:false "tail" (data "doomed");
  Wal.crash w;
  Alcotest.(check bool) "torn frontier left behind" true
    ((Wal.stats w).torn_tail >= 1);
  (* Recovery: replay, then checkpoint what was recovered (simulating the
     daemon snapshotting its restored state). *)
  ignore (Wal.replay w);
  Wal.checkpoint w (data "SNAP");
  Alcotest.(check int) "log truncated to the checkpoint" 1 (Wal.size w);
  (* A transaction committed after recovery... *)
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 2) (data "new-data");
  Wal.commit w tx;
  (* ...must be readable after a second crash: nothing torn may remain
     ahead of it in the log. *)
  Wal.crash w;
  let r = Wal.replay w in
  Alcotest.(check (option string)) "snapshot intact" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "post-recovery commit replayed"
    [ "page:8192:new-data" ] (payload_strings r)

(* Regression: crash truncation must recount records-since-checkpoint from
   what actually survived, not clamp the old counter to the log length
   (which counts the checkpoint record itself and over-reports after a
   lossy crash, skewing checkpoint cadence). *)
let test_wal_crash_recounts_since_checkpoint () =
  let w = mk_wal ~faults:all_faults () in
  Wal.checkpoint w (data "S");
  Wal.control w "kept" (data "1");
  Wal.control w ~sync:false "lost" (data "2");
  Wal.control w ~sync:false "lost" (data "3");
  Wal.crash w;
  (* The whole unsynced tail is dropped: one synced record survives after
     the checkpoint. *)
  Alcotest.(check int) "survivors after checkpoint" 1
    (Wal.records_since_checkpoint w)

(* Crash-at-every-point sweep: build the same operation script, crash it
   after every prefix length with a mid-flight uncommitted intent, and
   check the recovery contract both ways — every committed write is in the
   replay, no uncommitted write ever is. The fault model drops every
   unsynced record, which makes "crash anywhere between two syncs"
   equivalent to crashing right after the earlier one — the worst case. *)
let test_wal_crash_every_point_sweep () =
  let script = [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ] in
  let n = List.length script in
  for cut = 0 to n do
    let w = mk_wal ~faults:all_faults ~seed:(100 + cut) () in
    let committed = ref [] in
    List.iteri
      (fun i content ->
        if i < cut then begin
          let tx = Wal.begin_tx w in
          Wal.log_page w tx (page (i + 1)) (data content);
          Wal.commit w tx;
          committed := Printf.sprintf "page:%d:%s" ((i + 1) * 4096) content
                       :: !committed
        end)
      script;
    (* A crash catches the next intent mid-flight: begun, logged, never
       committed. *)
    if cut < n then begin
      let tx = Wal.begin_tx w in
      Wal.log_page w tx (page (cut + 1)) (data "UNCOMMITTED")
    end;
    Wal.crash w;
    let r = Wal.replay w in
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: exactly the committed prefix" cut)
      (List.rev !committed) (payload_strings r);
    (* Committing the dead intent after the crash must be a no-op. *)
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: stable after replay" cut)
      (List.rev !committed)
      (payload_strings (Wal.replay w))
  done


(* A page record keeps the caller's image by reference, under the page
   store's contract (the buffer is never mutated again): replay returns
   the very buffer logged. Notes, control records and snapshots own their
   bytes: a caller may reuse its buffer as soon as the append returns, and
   replay hands out copies. *)
let test_wal_caller_buffers_not_kept () =
  let w = mk_wal () in
  let img = data "image" and note = data "note" and ctl = data "ctl" in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) img;
  Wal.log_note w tx "meta" note;
  Wal.commit w tx;
  Wal.control w "ctl" ctl;
  List.iter (fun b -> Bytes.fill b 0 (Bytes.length b) 'X') [ note; ctl ];
  let expected = [ "page:4096:image"; "note:meta:note"; "note:ctl:ctl" ] in
  let r = Wal.replay w in
  Alcotest.(check (list string)) "notes kept their own bytes" expected
    (payload_strings r);
  (match r.Wal.ops with
   | Wal.Page (_, b) :: _ ->
     Alcotest.(check bool) "replay returns the logged page buffer" true
       (b == img)
   | _ -> Alcotest.fail "page payload missing");
  (* Scribbling on the notes replay returned must not reach the log. *)
  List.iter
    (function
      | Wal.Note (_, b) -> Bytes.fill b 0 (Bytes.length b) 'Y'
      | Wal.Page _ -> ())
    r.Wal.ops;
  Alcotest.(check (list string)) "replay returned copies of notes" expected
    (payload_strings (Wal.replay w));
  (* A page buffer changed after its append breaks the contract; the
     record's checksum catches it and replay reads the record as torn. *)
  Bytes.set img 0 'X';
  Alcotest.(check (list string)) "a mutated page record reads as torn" []
    (payload_strings (Wal.replay w));
  let snap = data "SNAP" in
  Wal.checkpoint w snap;
  Bytes.fill snap 0 4 'X';
  Alcotest.(check (option string)) "checkpoint kept its own snapshot"
    (Some "SNAP")
    (Option.map Bytes.to_string (Wal.replay w).Wal.snapshot)

(* In-doubt records cross a checkpoint as their existing images: after two
   truncations the prepared payloads replay byte for byte, and apply once
   the commit decision lands. *)
let test_wal_in_doubt_across_two_checkpoints () =
  let w = mk_wal () in
  let gtx = Kutil.Txid.make ~coord:2 ~epoch:0 ~seq:4 in
  let img = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 3) img;
  Wal.log_note w tx "pdir" (data "entry");
  Wal.prepare w tx gtx;
  let in_doubt () =
    match (Wal.replay w).Wal.in_doubt with
    | [ (g, payloads) ] when Kutil.Txid.equal g gtx ->
      List.map payload_string payloads
    | _ -> Alcotest.fail "expected exactly the one in-doubt transaction"
  in
  let before = in_doubt () in
  Wal.checkpoint w (data "s1");
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 4) (data "other");
  Wal.commit w tx;
  Wal.checkpoint w (data "s2");
  Alcotest.(check (list string)) "same payloads after two checkpoints" before
    (in_doubt ());
  Wal.decide w gtx ~commit:true ~participants:[];
  let r = Wal.replay w in
  Alcotest.(check (list string)) "applied on commit" before (payload_strings r);
  match r.Wal.ops with
  | Wal.Page (a, b) :: _ ->
    Alcotest.(check bool) "page address" true (Gaddr.equal a (page 3));
    Alcotest.(check bool) "page image byte-identical" true (Bytes.equal b img)
  | _ -> Alcotest.fail "page payload missing"

(* ------------------------------------------------------------------ *)
(* File-backed WAL: the durability a real killed process comes back to *)
(* ------------------------------------------------------------------ *)

let with_wal_file f () =
  let path =
    Filename.temp_file
      (Printf.sprintf "kwal-test-%d" (Unix.getpid ()))
      ".wal"
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

(* A second Wal attached to the same path is "the restarted process". *)
let reload path =
  let w = mk_wal ~seed:8 () in
  Wal.attach_file w path;
  w

let test_wal_file_round_trip path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  Alcotest.(check bool) "file-backed" true (Wal.file_backed w);
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "one");
  Wal.log_note w tx "meta" (data "m");
  Wal.commit w tx;
  Wal.control w "ctl" (data "c");
  (* An uncommitted intent may reach the file via a later sync; replay
     must still discard it. *)
  let dead = Wal.begin_tx w in
  Wal.log_page w dead (page 2) (data "ghost");
  Wal.sync w;
  let w' = reload path in
  let r = Wal.replay w' in
  Alcotest.(check (list string)) "reloaded committed ops"
    [ "page:4096:one"; "note:meta:m"; "note:ctl:c" ]
    (payload_strings r);
  Alcotest.(check bool) "ghost discarded" true (r.Wal.discarded >= 1)

let test_wal_file_checkpoint_rewrite path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  for i = 1 to 6 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data (string_of_int i));
    Wal.commit w tx
  done;
  let size_before = (Unix.stat path).Unix.st_size in
  Wal.checkpoint w (data "SNAP");
  let size_after = (Unix.stat path).Unix.st_size in
  Alcotest.(check bool) "file shrank with the log" true
    (size_after < size_before);
  (* Post-checkpoint appends land after the rewritten log. *)
  Wal.control w "after" (data "x");
  let r = Wal.replay (reload path) in
  Alcotest.(check (option string)) "snapshot survives reload" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "post-checkpoint op survives"
    [ "note:after:x" ] (payload_strings r)

let test_wal_file_torn_tail_dropped path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "kept");
  Wal.commit w tx;
  (* A SIGKILL mid-append leaves a partial frame: fake one by appending
     half a record by hand. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 in
  let junk = Bytes.create 6 in
  Bytes.set_int32_be junk 0 99l;
  ignore (Unix.write fd junk 0 6);
  Unix.close fd;
  let w' = reload path in
  let r = Wal.replay w' in
  Alcotest.(check (list string)) "committed prefix survives the tear"
    [ "page:4096:kept" ] (payload_strings r);
  (* The torn bytes were truncated away: appending now must produce a log
     a third incarnation reads cleanly. *)
  Wal.control w' "post" (data "p");
  let r2 = Wal.replay (reload path) in
  Alcotest.(check (list string)) "clean after truncate + append"
    [ "page:4096:kept"; "note:post:p" ] (payload_strings r2)

let test_wal_file_in_doubt_survives path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let gtx = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:7 in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 5) (data "limbo");
  Wal.prepare w tx gtx;
  let r = Wal.replay (reload path) in
  Alcotest.(check int) "one in-doubt transaction" 1
    (List.length r.Wal.in_doubt);
  let gtx', payloads = List.hd r.Wal.in_doubt in
  Alcotest.(check bool) "same global id" true (Kutil.Txid.equal gtx gtx');
  Alcotest.(check int) "its image held, not applied" 1 (List.length payloads);
  Alcotest.(check (list string)) "nothing applied" [] (payload_strings r)

(* The file holds each record as [u32 length][Codec encoding], whether the
   log keeps the encoding whole or a page image out of line. The expected
   bytes are encoded here from the record format itself. *)
let test_wal_file_bytes path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let gtx = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:7 in
  let img = Bytes.init 4096 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 2) img;
  Wal.log_note w tx "meta" (data "note");
  Wal.prepare w tx gtx;
  Wal.decide w gtx ~commit:true ~participants:[ (1, [ (page 2, 4) ]) ];
  let module C = Kutil.Codec in
  let expected = Buffer.create 4400 in
  let frame encode =
    let e = C.encoder () in
    encode e;
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (C.length e));
    Buffer.add_bytes expected len;
    Buffer.add_bytes expected (C.to_bytes e)
  in
  let id = 1 in
  frame (fun e -> C.u8 e 0; C.int e id);
  frame (fun e -> C.u8 e 1; C.int e id; C.u8 e 0; C.u128 e (page 2); C.bytes e img);
  frame (fun e ->
      C.u8 e 1; C.int e id; C.u8 e 1; C.string e "meta"; C.bytes e (data "note"));
  frame (fun e -> C.u8 e 5; C.int e id; Kutil.Txid.encode e gtx);
  frame (fun e ->
      C.u8 e 6;
      Kutil.Txid.encode e gtx;
      C.bool e true;
      Wal.encode_owed e [ (1, [ (page 2, 4) ]) ]);
  let ic = open_in_bin path in
  let on_disk = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "file is the framed encodings" true
    (String.equal (Buffer.contents expected) on_disk)

(* A coordinator's [Decide] record lists each participant still owed the
   decision with the write-through its decide carries; a restarted process
   reads the same versions back. *)
let test_wal_file_decide_keeps_versions path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let gtx = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:7 in
  let owed = [ (1, [ (page 5, 7); (page 6, 12) ]); (2, []) ] in
  Wal.decide w gtx ~commit:true ~participants:owed;
  match (Wal.replay (reload path)).Wal.decisions with
  | [ (g, true, owed') ] ->
    Alcotest.(check bool) "same global id" true (Kutil.Txid.equal gtx g);
    let show = List.map (fun (n, l) -> (n, List.map (fun (p, v) -> (Gaddr.to_string p, v)) l)) in
    Alcotest.(check (list (pair int (list (pair string int)))))
      "same participants and versions" (show owed) (show owed')
  | _ -> Alcotest.fail "expected the one commit decision"

(* A write of a page logged after an in-doubt prepare of it supersedes the
   prepared image: log order is the page's version order. Replay holds
   only the other pages for the decision, and a checkpoint carries only
   those. *)
let test_wal_later_write_supersedes_in_doubt () =
  let w = mk_wal () in
  let gtx = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:9 in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 3) (data "prepared-3");
  Wal.log_page w tx (page 4) (data "prepared-4");
  Wal.prepare w tx gtx;
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 3) (data "later-3");
  Wal.commit w tx;
  let held () =
    match (Wal.replay w).Wal.in_doubt with
    | [ (_, payloads) ] -> List.map payload_string payloads
    | _ -> Alcotest.fail "expected the one in-doubt transaction"
  in
  Alcotest.(check (list string)) "superseded image dropped"
    [ "page:16384:prepared-4" ] (held ());
  Wal.checkpoint w (data "snap");
  Alcotest.(check (list string)) "checkpoint carries the rest"
    [ "page:16384:prepared-4" ] (held ());
  Wal.decide w gtx ~commit:true ~participants:[];
  Alcotest.(check (list string)) "commit applies the rest"
    [ "page:16384:prepared-4" ] (payload_strings (Wal.replay w))

let () =
  Alcotest.run "kstorage"
    [
      ( "page_store",
        [
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "read copies" `Quick test_read_returns_copy;
          Alcotest.test_case "miss" `Quick test_miss;
          Alcotest.test_case "ram vs disk latency" `Quick test_ram_latency_vs_disk;
          Alcotest.test_case "eviction to disk" `Quick test_eviction_to_disk;
          Alcotest.test_case "pinning" `Quick test_pinned_not_victimised;
          Alcotest.test_case "evict hook" `Quick test_evict_hook_on_disk_overflow;
          Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
          Alcotest.test_case "immediate ops" `Quick test_immediate_ops;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "crash semantics" `Quick test_crash_loses_ram_keeps_disk;
          Alcotest.test_case "pages listing" `Quick test_pages_listing;
        ] );
      ( "disk_faults",
        [
          Alcotest.test_case "lost unsynced write rolls back" `Quick
            test_lost_unsynced_write_rolls_back;
          Alcotest.test_case "never-synced write vanishes" `Quick
            test_never_synced_write_vanishes;
          Alcotest.test_case "sync barrier protects" `Quick
            test_sync_barrier_protects;
          Alcotest.test_case "torn write never served" `Quick
            test_torn_write_never_served;
          Alcotest.test_case "scrub drops torn frames" `Quick
            test_scrub_drops_torn;
          Alcotest.test_case "crash clears pins" `Quick test_crash_clears_pins;
          Alcotest.test_case "promotion keeps durable copy" `Quick
            test_promotion_keeps_durable_copy;
          Alcotest.test_case "overwrite keeps prior durable" `Quick
            test_overwrite_keeps_prior_durable;
          Alcotest.test_case "flush_immediate single writeback" `Quick
            test_flush_immediate_single_writeback;
          Alcotest.test_case "checksum sees every bit" `Quick
            test_checksum_every_bit;
        ] );
      ( "write_from",
        [
          Alcotest.test_case "patches in place" `Quick test_write_from_patches;
          Alcotest.test_case "same latency as read+write" `Quick
            test_write_from_latency;
          Alcotest.test_case "no aliasing" `Quick test_write_from_no_aliasing;
          Alcotest.test_case "promotes a disk page" `Quick
            test_write_from_promotes_disk_page;
          Alcotest.test_case "crash mid-sleep" `Quick
            test_write_from_crash_mid_sleep;
          Alcotest.test_case "flushed disk frame keeps its bytes" `Quick
            test_flushed_disk_frame_survives_write_from;
          Alcotest.test_case "promoted disk frame survives" `Quick
            test_promoted_disk_frame_survives_write_from;
          Alcotest.test_case "crash rolls a shared page back" `Quick
            test_crash_rolls_back_shared_page;
          Alcotest.test_case "write_image charges the same" `Quick
            test_write_image;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit and replay" `Quick test_wal_commit_replay;
          Alcotest.test_case "replay idempotent" `Quick
            test_wal_replay_idempotent;
          Alcotest.test_case "checkpoint truncates" `Quick
            test_wal_checkpoint_truncates;
          Alcotest.test_case "crash loses unsynced tail" `Quick
            test_wal_crash_loses_unsynced_tail;
          Alcotest.test_case "torn frontier record" `Quick
            test_wal_torn_frontier_record;
          Alcotest.test_case "checkpoint clears torn frontier" `Quick
            test_wal_checkpoint_clears_torn_frontier;
          Alcotest.test_case "crash recounts since_checkpoint" `Quick
            test_wal_crash_recounts_since_checkpoint;
          Alcotest.test_case "crash at every point" `Quick
            test_wal_crash_every_point_sweep;
          Alcotest.test_case "caller buffers not kept" `Quick
            test_wal_caller_buffers_not_kept;
          Alcotest.test_case "in-doubt across two checkpoints" `Quick
            test_wal_in_doubt_across_two_checkpoints;
          Alcotest.test_case "later write supersedes in-doubt" `Quick
            test_wal_later_write_supersedes_in_doubt;
        ] );
      ( "wal_file",
        [
          Alcotest.test_case "round trip" `Quick
            (with_wal_file test_wal_file_round_trip);
          Alcotest.test_case "checkpoint rewrites" `Quick
            (with_wal_file test_wal_file_checkpoint_rewrite);
          Alcotest.test_case "torn tail dropped" `Quick
            (with_wal_file test_wal_file_torn_tail_dropped);
          Alcotest.test_case "in-doubt survives reload" `Quick
            (with_wal_file test_wal_file_in_doubt_survives);
          Alcotest.test_case "decide keeps its versions" `Quick
            (with_wal_file test_wal_file_decide_keeps_versions);
          Alcotest.test_case "framed encodings on disk" `Quick
            (with_wal_file test_wal_file_bytes);
        ] );
    ]
