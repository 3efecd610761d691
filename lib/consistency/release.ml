(** Release consistency — eager write-update.

    Khazana runs its own address-map tree nodes under this protocol:
    replicas may serve slightly stale reads, while writes are serialised by
    a write token and propagated to every replica when the writer releases
    its lock (Gharachorloo et al., eager as in Munin). A node with no copy
    fetches one from the home on first use.

    The home and its defences are {!Serial}'s; this module picks the
    write-update policy. A write grant leaves the copies in place; the
    release returns the token with an [Update], which the home fans out in
    an acked round; a silent holder loses the token after
    [token_timeout]. *)

include Serial.Make (struct
  let name = "release"
  let invalidates = false
end)
