type backoff = { cap : Ksim.Time.t; rng : Kutil.Rng.t option }

type t = {
  timeout : Ksim.Time.t;
  attempts : int;
  backoff : backoff option;
}

let default = { timeout = Ksim.Time.sec 1; attempts = 1; backoff = None }

let idempotent =
  {
    timeout = Ksim.Time.ms 300;
    attempts = 8;
    backoff = Some { cap = Ksim.Time.sec 2; rng = None };
  }

let with_timeout ?(attempts = 1) timeout =
  if attempts <= 0 then invalid_arg "Policy.with_timeout: attempts must be positive";
  { timeout; attempts; backoff = None }

let jittered ~rng ?(attempts = 1) ~base ~cap () =
  if attempts <= 0 then invalid_arg "Policy.jittered: attempts must be positive";
  if cap < base then invalid_arg "Policy.jittered: cap < base";
  { timeout = base; attempts; backoff = Some { cap; rng = Some rng } }

(* The per-call attempt-timeout source. A fresh [Backoff.t] per call keeps
   the growth schedule call-local (a daemon's hundredth RPC starts patient
   at [base] again), while the jitter stream — the policy's [rng] — persists
   across calls so simultaneous retriers stay decorrelated. *)
let timeout_source t =
  match t.backoff with
  | None -> fun () -> t.timeout
  | Some { cap; rng } ->
    let b = Kutil.Backoff.make ?rng ~cap ~base:t.timeout () in
    fun () -> Kutil.Backoff.next b
