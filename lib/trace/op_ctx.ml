type t = {
  principal : int;
  span : Trace.span;
  deadline : Ksim.Time.t option;
}

let make ?(span = Trace.null) ?deadline principal = { principal; span; deadline }
let background = { principal = -1; span = Trace.null; deadline = None }
let principal t = t.principal
let span t = t.span
let deadline t = t.deadline
let with_span t span = if span = t.span then t else { t with span }

let remaining t ~now =
  Option.map (fun d -> if d > now then d - now else 0) t.deadline

let expired t ~now = match t.deadline with Some d -> d <= now | None -> false
