(* kbench — the Khazana benchmark: one command that runs a workload on a
   real two-process fleet or on the simulator, checks every result, and
   prints the end-to-end metrics (or, with --trace 1, the per-layer ones)
   by name and unit. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See README.md. *)

open Common

let workloads = [ "local-read"; "mixed-rw"; "txn-2pc"; "sim-wan" ]

(* Operations per simulated client in one sim-wan round. *)
let sim_per_client = 3000
let sim_traced_per_client = 250

(* Set-ups timed per end-to-end run; [setup_s] is their median. *)
let setups = 21

(* [dir] is the socket and trace-shard scratch, relative to the cwd. *)
let run_workload ~seed ~seconds ~smoke ~dir ~trace name =
  (* Warm-up: 3 s before a 25 s window, shorter for shorter windows. *)
  let warmup = Float.min 3.0 (0.15 *. seconds) in
  let probe_budget = if smoke then 0.01 else 0.2 in
  let fleet workload =
    if trace then
      Fleet.run_layers ~dir ~workload ~seed ~seconds:(seconds /. 2.0) ~warmup
        ~traced_seconds:(Float.min 3.0 (seconds /. 2.0)) ~probe_budget
    else Fleet.run_e2e ~dir ~workload ~seed ~seconds ~warmup ~fleets:5 ~setups
  in
  let outcome =
    match name with
    | "local-read" -> fleet Fleet.Local_read
    | "mixed-rw" -> fleet Fleet.Mixed_rw
    | "txn-2pc" -> fleet Fleet.Txn_2pc
    | _ ->
      let per_client = if smoke then 500 / Sim_wan.nodes else sim_per_client in
      if trace then
        Sim_wan.run_layers ~seed ~per_client
          ~traced_per_client:(min per_client sim_traced_per_client) ~probe_budget
      else Sim_wan.run_e2e ~seed ~seconds ~per_client ~setups
  in
  if trace then { outcome with metrics = outcome.metrics @ Probes.pure ~budget:probe_budget }
  else outcome

let json_number v = if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (json_number m.value) m.unit_)
       ms)

let result_json o =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (o.violations = []) o.attempted o.failed (json_metrics o.metrics)

let print_summary name o =
  Printf.printf "== %s: %d operations, %d failed, %s\n" name o.attempted o.failed
    (if o.violations = [] then "every check passed" else "CHECKS FAILED");
  List.iter (fun v -> Printf.printf "   violation: %s\n" v) o.violations

let print_outcome name o =
  print_summary name o;
  List.iter
    (fun m -> Printf.printf "   %-36s %16s %s\n" m.name (json_number m.value) m.unit_)
    (o.metrics @ o.extra)

let write_json path results =
  let oc = open_out path in
  Printf.fprintf oc "{%s}\n"
    (String.concat ",\n "
       (List.map
          (fun (name, o) ->
            Printf.sprintf {|"%s": {"result": %s, "extra": {%s}, "violations": [%s]}|} name
              (result_json o) (json_metrics o.extra)
              (String.concat ", " (List.map (fun v -> Printf.sprintf "%S" v) o.violations)))
          results));
  close_out oc

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let usage = "kbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--smoke]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let json = ref "" and smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads ^ " (default: all)");
      ("--seed", Arg.Set_int seed, " workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured window per run (default 25)");
      ("--trace", Arg.Set_int trace, " 1: traced run printing the per-layer metrics (default 0)");
      ("--json", Arg.Set_string json, " also write every metric, extras included, to FILE");
      ("--smoke", Arg.Set smoke, " every workload briefly, both modes, every check; no result line") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "" then workloads else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w workloads) names) then begin
    prerr_endline ("kbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let dir = Filename.concat ".kbench" (string_of_int (Unix.getpid ())) in
  let smoke = !smoke in
  let seconds = if smoke then 0.5 else !seconds in
  (* A smoke run covers both modes of every workload. *)
  let runs =
    List.concat_map
      (fun name ->
        if smoke then [ (name, false); (name, true) ] else [ (name, !trace = 1) ])
      names
  in
  (* A run that wedges must still end, and take its node processes along. *)
  let cleanup () =
    Fleet.kill_all ();
    rm_rf dir;
    (try Sys.rmdir ".kbench" with Sys_error _ -> ())
  in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "kbench: out of time";
         cleanup ();
         exit 3));
  ignore (Unix.alarm (170 * List.length runs));
  (try Unix.mkdir ".kbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let results =
    try
      List.map
        (fun (name, trace) ->
          ( (if smoke && trace then name ^ " (traced)" else name),
            run_workload ~seed:!seed ~seconds ~smoke ~dir ~trace name ))
        runs
    with e ->
      cleanup ();
      prerr_endline ("kbench: " ^ Printexc.to_string e);
      exit 1
  in
  cleanup ();
  List.iter
    (fun (name, o) ->
      if smoke then print_summary name o
      else begin
        print_outcome name o;
        print_endline (result_json o)
      end)
    results;
  if !json <> "" then write_json !json results;
  if List.exists (fun (_, o) -> o.violations <> []) results then exit 1
