module Stats = Kutil.Stats
module Histogram = Stats.Histogram

type t = {
  counters : (string, Stats.counter) Hashtbl.t;
  summaries : (string, Histogram.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; summaries = Hashtbl.create 16 }

(* Lookups sit on every operation's path: [Hashtbl.find] hands back the
   binding without the option [find_opt] would build. *)
let counter t name =
  match Hashtbl.find t.counters name with
  | c -> c
  | exception Not_found ->
    let c = Stats.counter () in
    Hashtbl.replace t.counters name c;
    c

let summary t name =
  match Hashtbl.find t.summaries name with
  | s -> s
  | exception Not_found ->
    let s = Histogram.create () in
    Hashtbl.replace t.summaries name s;
    s

let incr t ?by name = Stats.incr ?by (counter t name)
let observe t name v = Histogram.add (summary t name) v

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t =
  List.map (fun (k, c) -> (k, Stats.count c)) (sorted_bindings t.counters)

let summaries t = sorted_bindings t.summaries

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.summaries

let pp ppf t =
  List.iter
    (fun (name, n) -> Format.fprintf ppf "%-32s %d@." name n)
    (counters t);
  List.iter
    (fun (name, s) ->
      if Histogram.count s > 0 then
        Format.fprintf ppf "%-32s %a@." name (Histogram.pp ~unit:"ms") s)
    (summaries t)
