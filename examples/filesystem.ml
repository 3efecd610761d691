(* A wide-area distributed filesystem (paper §4.1).

   One node formats the filesystem; instances on four other nodes — two in
   a remote cluster — mount the same superblock address and collaborate on
   a shared namespace. The filesystem code itself has no idea it is
   distributed: Khazana handles location, replication and consistency.

   Run with: dune exec examples/filesystem.exe *)

module System = Khazana.System
module Client = Khazana.Client
module Fs = Kfs.Fs

let ok = function
  | Ok v -> v
  | Error e -> failwith (Fs.error_to_string e)

let tree fs path =
  (* Render the namespace as seen by one instance. *)
  let rec walk indent path =
    List.iter
      (fun name ->
        let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        let st = ok (Fs.stat fs full) in
        (match st.Fs.kind with
         | Fs.Directory ->
           Printf.printf "%s%s/\n" indent name;
           walk (indent ^ "  ") full
         | Fs.File -> Printf.printf "%s%s (%d bytes)\n" indent name st.Fs.bytes))
      (ok (Fs.readdir fs path))
  in
  walk "  " path

let () =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let sb =
    System.run_fiber sys (fun () ->
        ok (Fs.format (System.client sys 1 ()) ()))
  in
  Printf.printf "formatted; superblock at %s — that address is all a mount needs\n\n"
    (Kutil.Gaddr.to_string sb);

  (* Mount the same filesystem on four nodes (n4, n5 are across the WAN). *)
  let mounts =
    System.run_fiber sys (fun () ->
        List.map
          (fun n -> (n, ok (Fs.mount (System.client sys n ()) sb)))
          [ 1; 2; 4; 5 ])
  in
  let fs_of n = List.assoc n mounts in

  System.run_fiber sys (fun () ->
      ok (Fs.mkdir (fs_of 1) "/projects");
      ok (Fs.mkdir (fs_of 1) "/projects/khazana");
      ok (Fs.create (fs_of 1) "/projects/khazana/paper.tex");
      ok (Fs.write (fs_of 1) "/projects/khazana/paper.tex" ~off:0
            (Bytes.of_string "\\title{Khazana}")));

  (* Node 4 (other cluster) picks up where node 1 left off. *)
  System.run_fiber sys (fun () ->
      let fs = fs_of 4 in
      let sz = ok (Fs.size fs "/projects/khazana/paper.tex") in
      ok (Fs.write fs "/projects/khazana/paper.tex" ~off:sz
            (Bytes.of_string "\n\\begin{document}"));
      ok (Fs.create fs "/projects/khazana/eval.dat");
      ok (Fs.write fs "/projects/khazana/eval.dat" ~off:0 (Bytes.make 10_000 '#')));

  (* Concurrent appends from every mount to a shared log, interleaved by
     CREW write locks. *)
  System.run_fiber sys (fun () ->
      ok (Fs.create (fs_of 2) "/projects/log"));
  System.run_fiber sys (fun () ->
      let eng = System.engine sys in
      let fibers =
        List.map
          (fun (n, fs) ->
            Ksim.Fiber.async eng (fun () ->
                for i = 1 to 3 do
                  let line = Printf.sprintf "node%d-entry%d\n" n i in
                  ok (Fs.append fs "/projects/log" (Bytes.of_string line))
                done))
          mounts
      in
      Ksim.Fiber.join_all fibers);

  Printf.printf "namespace as seen from node 5 (never wrote anything):\n";
  System.run_fiber sys (fun () -> tree (fs_of 5) "/");

  System.run_fiber sys (fun () ->
      let log = ok (Fs.read (fs_of 5) "/projects/log" ~off:0 ~len:4096) in
      let lines = String.split_on_char '\n' (Bytes.to_string log) in
      Printf.printf "\nshared log has %d entries from 4 writers; first three:\n"
        (List.length lines - 1);
      List.iteri (fun i l -> if i < 3 then Printf.printf "  %s\n" l) lines);

  let stats = Khazana.Wire.Transport.stats (System.transport sys) in
  Printf.printf "\nsession took %s of simulated time, %d messages on the wire\n"
    (Format.asprintf "%a" Ksim.Time.pp (System.now sys)) stats.sent
