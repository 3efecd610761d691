(* Tests for the Khazana filesystem (paper §4.1): namespace operations,
   file data under both block policies, distribution across nodes, and
   per-file attributes. *)

module System = Khazana.System
module Client = Khazana.Client
module Attr = Khazana.Attr
module Fs = Kfs.Fs

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Fs.error_to_string e)

let bytes_s = Bytes.of_string

let with_fs ?policy f =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  System.run_fiber sys (fun () ->
      let sb = ok (Fs.format c1 ?policy ()) in
      let fs = ok (Fs.mount c1 sb) in
      f sys sb fs)

let test_format_mount () =
  with_fs (fun _sys sb fs ->
      Alcotest.(check bool) "superblock addr kept" true
        (Kutil.Gaddr.equal (Fs.superblock_addr fs) sb);
      Alcotest.(check (list string)) "empty root" [] (ok (Fs.readdir fs "/")))

let test_create_write_read () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.create fs "/hello.txt");
      ok (Fs.write fs "/hello.txt" ~off:0 (bytes_s "hello, khazana"));
      let b = ok (Fs.read fs "/hello.txt" ~off:0 ~len:14) in
      Alcotest.(check string) "content" "hello, khazana" (Bytes.to_string b);
      Alcotest.(check int) "size" 14 (ok (Fs.size fs "/hello.txt"));
      (* Partial read and read past EOF. *)
      let b = ok (Fs.read fs "/hello.txt" ~off:7 ~len:100) in
      Alcotest.(check string) "tail clamped" "khazana" (Bytes.to_string b);
      let b = ok (Fs.read fs "/hello.txt" ~off:100 ~len:10) in
      Alcotest.(check int) "past eof empty" 0 (Bytes.length b))

let test_multi_block_file () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.create fs "/big");
      (* Write 3.5 pages of patterned data. *)
      let n = 14336 in
      let data = Bytes.init n (fun i -> Char.chr (i mod 251)) in
      ok (Fs.write fs "/big" ~off:0 data);
      Alcotest.(check int) "size" n (ok (Fs.size fs "/big"));
      let st = ok (Fs.stat fs "/big") in
      Alcotest.(check int) "four blocks" 4 st.Fs.blocks;
      let b = ok (Fs.read fs "/big" ~off:0 ~len:n) in
      Alcotest.(check bool) "content equal" true (Bytes.equal data b);
      (* Cross-block overwrite in the middle. *)
      ok (Fs.write fs "/big" ~off:4090 (bytes_s "XBOUNDARYX"));
      let b = ok (Fs.read fs "/big" ~off:4090 ~len:10) in
      Alcotest.(check string) "overwrite" "XBOUNDARYX" (Bytes.to_string b))

let test_sparse_extend () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.create fs "/sparse");
      ok (Fs.write fs "/sparse" ~off:9000 (bytes_s "far"));
      Alcotest.(check int) "size extends" 9003 (ok (Fs.size fs "/sparse"));
      let b = ok (Fs.read fs "/sparse" ~off:0 ~len:4) in
      Alcotest.(check string) "hole zero-filled" "\000\000\000\000" (Bytes.to_string b))

let test_directories () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.mkdir fs "/a");
      ok (Fs.mkdir fs "/a/b");
      ok (Fs.create fs "/a/b/c.txt");
      ok (Fs.create fs "/a/top.txt");
      Alcotest.(check (list string)) "root" [ "a" ] (ok (Fs.readdir fs "/"));
      Alcotest.(check (list string)) "nested" [ "b"; "top.txt" ]
        (ok (Fs.readdir fs "/a"));
      Alcotest.(check (list string)) "deep" [ "c.txt" ] (ok (Fs.readdir fs "/a/b"));
      let st = ok (Fs.stat fs "/a/b") in
      Alcotest.(check bool) "is dir" true (st.Fs.kind = Fs.Directory);
      (* Errors. *)
      (match Fs.readdir fs "/a/top.txt" with
       | Error `Not_a_directory -> ()
       | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
       | Ok _ -> Alcotest.fail "readdir on a file");
      (match Fs.create fs "/a/top.txt" with
       | Error `Exists -> ()
       | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
       | Ok _ -> Alcotest.fail "duplicate create");
      match Fs.read fs "/missing" ~off:0 ~len:1 with
      | Error `Not_found -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
      | Ok _ -> Alcotest.fail "read of missing file")

let test_unlink_rmdir () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.mkdir fs "/d");
      ok (Fs.create fs "/d/f");
      ok (Fs.write fs "/d/f" ~off:0 (bytes_s "bye"));
      (match Fs.rmdir fs "/d" with
       | Error `Not_empty -> ()
       | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
       | Ok () -> Alcotest.fail "removed non-empty dir");
      ok (Fs.unlink fs "/d/f");
      Alcotest.(check bool) "gone" false (Fs.exists fs "/d/f");
      ok (Fs.rmdir fs "/d");
      Alcotest.(check (list string)) "root empty" [] (ok (Fs.readdir fs "/"));
      match Fs.unlink fs "/d/f" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "unlink through a removed dir")

let test_truncate () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.create fs "/t");
      ok (Fs.write fs "/t" ~off:0 (Bytes.make 10000 'x'));
      Alcotest.(check int) "blocks before" 3 (ok (Fs.stat fs "/t")).Fs.blocks;
      ok (Fs.truncate fs "/t" ~len:4000);
      Alcotest.(check int) "size after" 4000 (ok (Fs.size fs "/t"));
      Alcotest.(check int) "blocks freed" 1 (ok (Fs.stat fs "/t")).Fs.blocks;
      let b = ok (Fs.read fs "/t" ~off:3990 ~len:100) in
      Alcotest.(check int) "clamped" 10 (Bytes.length b);
      (* Extending truncate grows size without data. *)
      ok (Fs.truncate fs "/t" ~len:5000);
      Alcotest.(check int) "regrown" 5000 (ok (Fs.size fs "/t")))

let test_distributed_mounts () =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  let c4 = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      let sb = ok (Fs.format c1 ()) in
      let fs1 = ok (Fs.mount c1 sb) in
      ok (Fs.mkdir fs1 "/shared");
      ok (Fs.create fs1 "/shared/doc");
      ok (Fs.write fs1 "/shared/doc" ~off:0 (bytes_s "written on n1"));
      (* The same filesystem code, pointed at the same superblock, on a
         node in the other cluster. *)
      let fs4 = ok (Fs.mount c4 sb) in
      let b = ok (Fs.read fs4 "/shared/doc" ~off:0 ~len:13) in
      Alcotest.(check string) "n4 reads n1's file" "written on n1" (Bytes.to_string b);
      ok (Fs.write fs4 "/shared/doc" ~off:0 (bytes_s "UPDATED on n4"));
      ok (Fs.create fs4 "/shared/from4");
      let b = ok (Fs.read fs1 "/shared/doc" ~off:0 ~len:13) in
      Alcotest.(check string) "n1 sees n4's update" "UPDATED on n4" (Bytes.to_string b);
      Alcotest.(check (list string)) "n1 sees n4's create" [ "doc"; "from4" ]
        (ok (Fs.readdir fs1 "/shared")))

let test_contiguous_policy () =
  with_fs ~policy:(Fs.Contiguous 65536) (fun _sys _sb fs ->
      ok (Fs.create fs "/c");
      let data = Bytes.init 10000 (fun i -> Char.chr (i mod 256)) in
      ok (Fs.write fs "/c" ~off:0 data);
      let b = ok (Fs.read fs "/c" ~off:0 ~len:10000) in
      Alcotest.(check bool) "roundtrip" true (Bytes.equal data b);
      let st = ok (Fs.stat fs "/c") in
      Alcotest.(check int) "single data region" 1 st.Fs.blocks;
      (* The fixed maximum is enforced. *)
      match Fs.write fs "/c" ~off:65530 (bytes_s "overflow!") with
      | Error `File_too_big -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
      | Ok () -> Alcotest.fail "wrote past contiguous max")

let test_per_file_attributes () =
  with_fs (fun sys _sb fs ->
      (* A precious file with 3 replicas; paper: "parameters specified at
         file creation time may be used to specify the number of replicas
         required". *)
      let attr = Attr.make ~owner:1 ~min_replicas:3 () in
      ok (Fs.create fs ~attr "/precious");
      ok (Fs.write fs "/precious" ~off:0 (bytes_s "replicated"));
      System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
      let st = ok (Fs.stat fs "/precious") in
      (* The file's first data block should be replicated on 3+ nodes. *)
      let block_attr = ok ((Client.get_attr (Fs.client fs) st.Fs.inode_addr
                            :> (Attr.t, Fs.error) result)) in
      Alcotest.(check int) "inode carries replicas" 3 block_attr.Attr.min_replicas)

let test_rename () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.mkdir fs "/a");
      ok (Fs.mkdir fs "/b");
      ok (Fs.create fs "/a/old");
      ok (Fs.write fs "/a/old" ~off:0 (bytes_s "payload"));
      (* Same-directory rename. *)
      ok (Fs.rename fs "/a/old" "/a/new");
      Alcotest.(check bool) "old gone" false (Fs.exists fs "/a/old");
      let b = ok (Fs.read fs "/a/new" ~off:0 ~len:7) in
      Alcotest.(check string) "data follows" "payload" (Bytes.to_string b);
      (* Cross-directory rename. *)
      ok (Fs.rename fs "/a/new" "/b/moved");
      Alcotest.(check (list string)) "a empty" [] (ok (Fs.readdir fs "/a"));
      Alcotest.(check (list string)) "b has it" [ "moved" ] (ok (Fs.readdir fs "/b"));
      let b = ok (Fs.read fs "/b/moved" ~off:0 ~len:7) in
      Alcotest.(check string) "data still follows" "payload" (Bytes.to_string b);
      (* Renaming a directory moves its subtree. *)
      ok (Fs.create fs "/b/moved2");
      (match Fs.rename fs "/b/moved" "/b/moved2" with
       | Error `Exists -> ()
       | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
       | Ok () -> Alcotest.fail "clobbered existing target");
      ok (Fs.rename fs "/b" "/c");
      Alcotest.(check bool) "dir contents move" true (Fs.exists fs "/c/moved");
      match Fs.rename fs "/missing" "/x" with
      | Error `Not_found -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
      | Ok () -> Alcotest.fail "renamed a ghost")

(* Directories whose entry blobs cross a block boundary, so the
   transactional rename reads and rewrites both blobs across several
   blocks (or several pages of one contiguous region). *)
let test_rename_multi_block_dirs policy () =
  with_fs ~policy (fun _sys _sb fs ->
      let names prefix =
        List.init 34 (fun i -> Printf.sprintf "%s-%02d-%s" prefix i (String.make 100 'x'))
      in
      let src_names = names "s" and dst_names = names "d" in
      ok (Fs.mkdir fs "/src");
      ok (Fs.mkdir fs "/dst");
      List.iter (fun n -> ok (Fs.create fs ("/src/" ^ n))) src_names;
      List.iter (fun n -> ok (Fs.create fs ("/dst/" ^ n))) dst_names;
      let block = 4096 in
      List.iter
        (fun d ->
          let st = ok (Fs.stat fs d) in
          Alcotest.(check bool) (d ^ " entries span blocks") true (st.Fs.bytes > block))
        [ "/src"; "/dst" ];
      let moving = List.nth src_names 20 in
      let data = Bytes.init 5000 (fun i -> Char.chr (i mod 241)) in
      ok (Fs.write fs ("/src/" ^ moving) ~off:0 data);
      ok (Fs.rename fs ("/src/" ^ moving) "/dst/moved");
      let sorted l = List.sort compare l in
      Alcotest.(check (list string)) "src listing"
        (sorted (List.filter (fun n -> n <> moving) src_names))
        (sorted (ok (Fs.readdir fs "/src")));
      Alcotest.(check (list string)) "dst listing"
        (sorted ("moved" :: dst_names))
        (sorted (ok (Fs.readdir fs "/dst")));
      let b = ok (Fs.read fs "/dst/moved" ~off:0 ~len:5000) in
      Alcotest.(check bool) "moved file's bytes" true (Bytes.equal data b))

let test_large_pages () =
  (* The paper allows regions "managed in pages larger than 4-kilobytes
     (e.g., 16 kilobytes...)": a filesystem formatted with 16K pages uses
     16K blocks throughout. *)
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  System.run_fiber sys (fun () ->
      let attr = Attr.make ~owner:1 ~page_size:16384 () in
      let sb = ok (Fs.format c1 ~attr ()) in
      let fs = ok (Fs.mount c1 sb) in
      ok (Fs.create fs "/big-blocks");
      let data = Bytes.init 20000 (fun i -> Char.chr (i mod 251)) in
      ok (Fs.write fs "/big-blocks" ~off:0 data);
      let st = ok (Fs.stat fs "/big-blocks") in
      Alcotest.(check int) "two 16K blocks" 2 st.Fs.blocks;
      let b = ok (Fs.read fs "/big-blocks" ~off:0 ~len:20000) in
      Alcotest.(check bool) "roundtrip" true (Bytes.equal data b);
      (* And it still shares across the WAN. *)
      let fs4 = ok (Fs.mount (System.client sys 4 ()) sb) in
      let b = ok (Fs.read fs4 "/big-blocks" ~off:16000 ~len:100) in
      Alcotest.(check bool) "remote read" true
        (Bytes.equal b (Bytes.sub data 16000 100)))

let test_wshared_scratch_files () =
  (* A scratch file under the write-shared protocol: two nodes append to
     disjoint halves concurrently without ownership ping-pong. *)
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  System.run_fiber sys (fun () ->
      let sb = ok (Fs.format c1 ()) in
      let fs1 = ok (Fs.mount c1 sb) in
      let attr = Attr.make ~owner:1 ~protocol:"wshared" () in
      ok (Fs.create fs1 ~attr "/scratch");
      (* Preallocate one block so both writers hit the same page. *)
      ok (Fs.write fs1 "/scratch" ~off:0 (Bytes.make 4096 '.'));
      let fs4 = ok (Fs.mount (System.client sys 4 ()) sb) in
      let eng = System.engine sys in
      let w node fs off ch =
        Ksim.Fiber.async eng (fun () ->
            ignore node;
            ok (Fs.write fs "/scratch" ~off (Bytes.make 100 ch)))
      in
      Ksim.Fiber.join_all [ w 1 fs1 0 'a'; w 4 fs4 2000 'b' ];
      Ksim.Fiber.sleep (Ksim.Time.sec 2);
      (* Both halves visible from a third node. *)
      let fs2 = ok (Fs.mount (System.client sys 2 ()) sb) in
      let b = ok (Fs.read fs2 "/scratch" ~off:0 ~len:4096) in
      Alcotest.(check char) "n1's bytes" 'a' (Bytes.get b 50);
      Alcotest.(check char) "n4's bytes" 'b' (Bytes.get b 2050))

let test_file_too_big_per_block () =
  with_fs (fun _sys _sb fs ->
      ok (Fs.create fs "/huge");
      match Fs.write fs "/huge" ~off:(201 * 4096) (bytes_s "x") with
      | Error `File_too_big -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_to_string e)
      | Ok () -> Alcotest.fail "exceeded the direct-block limit")

let () =
  Alcotest.run "kfs"
    [
      ( "fs",
        [
          Alcotest.test_case "format/mount" `Quick test_format_mount;
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "multi-block" `Quick test_multi_block_file;
          Alcotest.test_case "sparse extend" `Quick test_sparse_extend;
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "unlink/rmdir" `Quick test_unlink_rmdir;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "distributed mounts" `Quick test_distributed_mounts;
          Alcotest.test_case "contiguous policy" `Quick test_contiguous_policy;
          Alcotest.test_case "per-file attributes" `Quick test_per_file_attributes;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename across multi-block dirs (per-block)" `Quick
            (test_rename_multi_block_dirs Fs.Per_block_regions);
          Alcotest.test_case "rename across multi-block dirs (contiguous)" `Quick
            (test_rename_multi_block_dirs (Fs.Contiguous 65536));
          Alcotest.test_case "16K pages" `Quick test_large_pages;
          Alcotest.test_case "write-shared scratch" `Quick test_wshared_scratch_files;
          Alcotest.test_case "file size limit" `Quick test_file_too_big_per_block;
        ] );
    ]
