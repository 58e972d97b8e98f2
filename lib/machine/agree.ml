type diff = { field : string; expected : string; actual : string }

let of_run (outcome, stats) = (Exec.outcome_to_string outcome, stats)

(* Each check renders only when its field differs, so agreeing runs
   cost a handful of comparisons and no formatting. *)
let first_diff (o1, (a : Exec.stats)) (o2, (b : Exec.stats)) =
  let check field equal render x y () =
    if equal x y then None
    else Some { field; expected = render x; actual = render y }
  in
  let int field x y = check field Int.equal string_of_int x y in
  List.find_map
    (fun check -> check ())
    [
      check "outcome" String.equal Fun.id o1 o2;
      check "output" String.equal String.escaped a.output b.output;
      int "instr_count" a.instr_count b.instr_count;
      int "call_count" a.call_count b.call_count;
      int "max_depth" a.max_depth b.max_depth;
      int "max_frame_bytes" a.max_frame_bytes b.max_frame_bytes;
      int "rss_bytes" a.rss_bytes b.rss_bytes;
      check "cycles"
        (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
        (Printf.sprintf "%h") a.cycles b.cycles;
    ]

let runs r1 r2 = first_diff (of_run r1) (of_run r2)

let diff_to_string d =
  Printf.sprintf "%s differs: %s vs %s" d.field d.expected d.actual
