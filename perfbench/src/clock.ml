(* Monotonic host clock, nanosecond resolution and allocation-free, so
   the spans around sub-microsecond intrinsics stay meaningful. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
