(* Trace shards and self time. Each process of a traced run keeps its
   records in a Ktrace ring and writes them out as a jsonl shard at the
   end of the window; kbench merges the shards on one clock and charges
   every span its self time: its duration minus the part of it that its
   child spans cover. *)

module Trace = Ktrace.Trace

type span = {
  name : string;
  parent : int;
  start : float;  (* µs on the merged clock *)
  stop : float;
}

let write_shard ring path =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  List.iter (Trace.jsonl_sink ppf) (Trace.Ring.records ring);
  Format.pp_print_flush ppf ();
  close_out oc

(* A shard's timestamps are its process's engine clock, which counts from
   when that process's endpoint was created; [origin_us] puts that
   instant on the merged clock. Events and unfinished spans are dropped. *)
let read_shard ~origin_us path : (int * span) list =
  let ic = open_in path in
  let starts = Hashtbl.create 4096 and ends = Hashtbl.create 4096 in
  let at ts = origin_us +. (float_of_int ts /. 1e3) in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:{|{"type":"span_start"|} line then
         Scanf.sscanf line
           {|{"type":"span_start","id":%d,"parent":%d,"node":%_d,"name":"%s@","ts_ns":%d|}
           (fun id parent name ts -> Hashtbl.replace starts id (name, parent, at ts))
       else if String.starts_with ~prefix:{|{"type":"span_end"|} line then
         Scanf.sscanf line {|{"type":"span_end","id":%d,"ts_ns":%d|} (fun id ts ->
             Hashtbl.replace ends id (at ts))
     done
   with End_of_file -> close_in ic);
  Hashtbl.fold
    (fun id (name, parent, start) acc ->
      match Hashtbl.find_opt ends id with
      | Some stop -> (id, { name; parent; start; stop }) :: acc
      | None -> acc)
    starts []

(* The same view straight from an in-process ring (the simulator: one
   process, one clock, in simulated time). *)
let of_records records : (int * span) list =
  List.filter_map
    (fun (s : Trace.span_info) ->
      Option.map
        (fun fin ->
          ( s.span_id,
            {
              name = s.span_name;
              parent = s.span_parent;
              start = float_of_int s.span_start /. 1e3;
              stop = float_of_int fin /. 1e3;
            } ))
        s.span_finish)
    (Trace.spans records)

(* Total self time and count per span name, largest total first. *)
let self_times (spans : (int * span) list) =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (_, s) ->
      Hashtbl.replace children s.parent
        ((s.start, s.stop) :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let covered s kids =
    let clipped =
      List.filter_map
        (fun (a, b) ->
          let a = Float.max a s.start and b = Float.min b s.stop in
          if b > a then Some (a, b) else None)
        kids
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (total, (ca, cb)) (a, b) ->
          if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, Float.max cb b)))
        (0.0, (s.start, s.start))
        clipped
    in
    total +. (snd last -. fst last)
  in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (id, s) ->
      let kids = Option.value (Hashtbl.find_opt children id) ~default:[] in
      let self = Float.max 0.0 (s.stop -. s.start -. covered s kids) in
      let total, count = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0) in
      Hashtbl.replace by_name s.name (total +. self, count + 1))
    spans;
  Hashtbl.fold (fun name (total, count) acc -> (name, total, count) :: acc) by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(* The top 20 span names as extra metrics: self µs per operation. *)
let top_metrics ~ops spans =
  List.filteri (fun i _ -> i < 20) (self_times spans)
  |> List.map (fun (name, total, _) ->
         Common.metric ("self_us." ^ name) "us" (total /. float_of_int (max 1 ops)))
