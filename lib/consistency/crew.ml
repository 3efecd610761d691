(** CREW — Concurrent Read, Exclusive Write.

    The protocol the Khazana prototype ships for strict regions: a
    directory-based write-invalidate scheme in the style of Li & Hudak's
    fixed distributed manager. Reads fetch a copy from any holder; a write
    invalidates the copyset and moves ownership to the writer, which keeps
    it after its release. The home, the fences, the retries and the
    recovery paths are {!Serial}'s; this module only picks the
    write-invalidate policy. *)

include Serial.Make (struct
  let name = "crew"
  let invalidates = true
end)
