(* Tests for the segmented memory and the interpreter. *)

let compile = Minic.Driver.compile

let run_prog ?(input = "") ?fuel prog =
  let st = Machine.Exec.prepare prog in
  Machine.Exec.set_input st (Machine.Exec.input_string input);
  Machine.Exec.run ?fuel st

(* ------------------------------------------------------------------ *)
(* Memory *)

let mk_mem () =
  Machine.Memory.create
    [
      ("ro", 0x1000, 4096, Machine.Memory.Read_only);
      ("rw", 0x10000, 4096, Machine.Memory.Read_write);
    ]

let test_memory_rw_roundtrip () =
  let m = mk_mem () in
  Machine.Memory.store m ~width:8 0x10010 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L
    (Machine.Memory.load m ~width:8 0x10010);
  Alcotest.(check int64) "little-endian low u16" 0x7788L
    (Machine.Memory.load m ~width:2 0x10010)

let test_memory_write_protection () =
  let m = mk_mem () in
  Machine.Memory.write_protected m 0x1000 "secret";
  Alcotest.(check string) "readable" "secret" (Machine.Memory.read_bytes m 0x1000 6);
  (match Machine.Memory.store m ~width:1 0x1000 0L with
  | () -> Alcotest.fail "expected write-protection fault"
  | exception Machine.Memory.Fault (Machine.Memory.Write_protected _) -> ())

let test_memory_oob_and_null () =
  let m = mk_mem () in
  (match Machine.Memory.load m ~width:8 0x999999 with
  | _ -> Alcotest.fail "expected OOB fault"
  | exception Machine.Memory.Fault (Machine.Memory.Out_of_bounds _) -> ());
  (match Machine.Memory.load m ~width:1 0 with
  | _ -> Alcotest.fail "expected null fault"
  | exception Machine.Memory.Fault Machine.Memory.Null_dereference -> ());
  (* straddling the segment end *)
  match Machine.Memory.load m ~width:8 (0x1000 + 4092) with
  | _ -> Alcotest.fail "expected straddle fault"
  | exception Machine.Memory.Fault (Machine.Memory.Out_of_bounds _) -> ()

let test_memory_overlap_rejected () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Machine.Memory.create: segments a and b overlap")
    (fun () ->
      ignore
        (Machine.Memory.create
           [
             ("a", 0x1000, 4096, Machine.Memory.Read_write);
             ("b", 0x1800, 4096, Machine.Memory.Read_write);
           ]))

let test_touched_pages () =
  let m = mk_mem () in
  let before = Machine.Memory.touched_bytes m in
  Machine.Memory.store m ~width:1 0x10000 1L;
  Machine.Memory.store m ~width:1 0x10001 1L;
  let after_one_page = Machine.Memory.touched_bytes m in
  Alcotest.(check int) "one page" Machine.Memory.page_size
    (after_one_page - before);
  Machine.Memory.store m ~width:1 (0x10000 + 4096 - 1) 1L;
  Alcotest.(check int) "same segment page boundary" after_one_page
    (Machine.Memory.touched_bytes m)

let test_cstring () =
  let m = mk_mem () in
  Machine.Memory.write_bytes m 0x10000 "hello\000world";
  Alcotest.(check string) "stops at NUL" "hello" (Machine.Memory.cstring m 0x10000)

(* The frame-slot entry points are load/store with the value in a
   native-endian 64-bit frame slot: same bytes, same zero-extension,
   same faults. *)
let test_frame_slot_access () =
  let m = mk_mem () in
  let frame = Bytes.make 16 '\000' in
  List.iter
    (fun width ->
      List.iter
        (fun v ->
          Bytes.set_int64_ne frame 8 v;
          Machine.Memory.store_from m ~width 0x10020 frame 8;
          Alcotest.(check int64)
            (Printf.sprintf "store_from width %d of %Ld" width v)
            (Sutil.Bytecodec.zext ~width v)
            (Machine.Memory.load m ~width 0x10020);
          Machine.Memory.store m ~width 0x10030 v;
          Machine.Memory.load_into m ~width 0x10030 frame 0;
          Alcotest.(check int64)
            (Printf.sprintf "load_into width %d of %Ld zero-extends" width v)
            (Sutil.Bytecodec.zext ~width v)
            (Bytes.get_int64_ne frame 0);
          Alcotest.(check int64) "neighbouring slot untouched" v
            (Bytes.get_int64_ne frame 8))
        [ -1L; -2L; 0x80L; 0x8000L; 0x8000_0000L; Int64.min_int;
          0x1234_5678_9abc_def0L ])
    [ 1; 2; 4; 8 ];
  let fault f =
    match f () with
    | () -> None
    | exception Machine.Memory.Fault x -> Some x
  in
  let same what a b =
    Alcotest.(check bool) what true (fault a = fault b && fault a <> None)
  in
  let load addr () = ignore (Machine.Memory.load m ~width:4 addr) in
  let load_into addr () = Machine.Memory.load_into m ~width:4 addr frame 0 in
  let store addr () = Machine.Memory.store m ~width:4 addr 1L in
  let store_from addr () = Machine.Memory.store_from m ~width:4 addr frame 0 in
  List.iter
    (fun addr ->
      same (Printf.sprintf "load fault at 0x%x" addr) (load addr) (load_into addr);
      same (Printf.sprintf "store fault at 0x%x" addr) (store addr)
        (store_from addr))
    [ 0; 0x999999; 0x10ffe ];
  same "write-protected" (store 0x1000) (store_from 0x1000)

(* A miss of the one-segment cache scans the segment table without
   allocating: alternating stack and data accesses miss every time. *)
let test_locate_miss_allocation_free () =
  let m =
    Machine.Memory.create
      [
        ("rodata", 0x10000, 4096, Machine.Memory.Read_only);
        ("data", 0x200000, 4096, Machine.Memory.Read_write);
        ("heap", 0x400000, 4096, Machine.Memory.Read_write);
        ("stack", 0xcff000, 4096, Machine.Memory.Read_write);
      ]
  in
  let frame = Bytes.make 8 '\000' in
  Machine.Memory.load_into m ~width:8 0xcff008 frame 0;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Machine.Memory.load_into m ~width:8
      (if i land 1 = 0 then 0xcff008 else 0x200008)
      frame 0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 10 000 missing loads" 0. words

(* ------------------------------------------------------------------ *)
(* Exec: faults, builtins, accounting *)

let outcome_testable =
  Alcotest.testable
    (fun fmt o -> Format.pp_print_string fmt (Machine.Exec.outcome_to_string o))
    ( = )

let test_exit_code () =
  let outcome, _ = run_prog (compile "int main() { return 7; }") in
  Alcotest.(check outcome_testable) "exit 7" (Machine.Exec.Exit 7L) outcome

let test_exit_builtin () =
  let outcome, _ =
    run_prog (compile "int main() { exit(3); print_int(1); return 0; }")
  in
  Alcotest.(check outcome_testable) "exit 3" (Machine.Exec.Exit 3L) outcome

let test_division_by_zero_faults () =
  let outcome, _ =
    run_prog (compile "long g = 0; int main() { return (int)(5 / g); }")
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
      Alcotest.(check string) "reason" "division by zero" m
  | o -> Alcotest.failf "expected division fault, got %s" (Machine.Exec.outcome_to_string o)

let test_wild_pointer_faults () =
  let outcome, _ =
    run_prog (compile "int main() { *(long*)123456789 = 1; return 0; }")
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Out_of_bounds _; _ } -> ()
  | o -> Alcotest.failf "expected OOB, got %s" (Machine.Exec.outcome_to_string o)

let test_stack_overflow_faults () =
  let outcome, _ =
    run_prog
      (compile
         {|
long deep(long n) {
  char pad[4096];
  pad[0] = (char)n;
  return deep(n + 1) + pad[0];
}
int main() { return (int)deep(0); }
|})
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Stack_overflow _; _ } -> ()
  | o -> Alcotest.failf "expected stack overflow, got %s" (Machine.Exec.outcome_to_string o)

let test_fuel_exhaustion () =
  let outcome, _ =
    run_prog ~fuel:1000 (compile "int main() { while (1) {} return 0; }")
  in
  Alcotest.(check outcome_testable) "fuel" Machine.Exec.Fuel_exhausted outcome

let test_strncpy_size_t_semantics () =
  (* negative n behaves as a huge unsigned bound: copy until NUL *)
  let outcome, stats =
    run_prog
      (compile
         {|
char dst[64];
int main() {
  strncpy(dst, "overflowing", 0 - 1);
  print_str(dst);
  return 0;
}
|})
  in
  Alcotest.(check outcome_testable) "ok" (Machine.Exec.Exit 0L) outcome;
  Alcotest.(check string) "copied fully" "overflowing" stats.output

let test_snprintf_cat_semantics () =
  let outcome, stats =
    run_prog
      (compile
         {|
char dst[8];
int main() {
  long need = snprintf_cat(dst, 4, "abcdef");
  print_int(need);
  print_str(dst);
  return 0;
}
|})
  in
  Alcotest.(check outcome_testable) "ok" (Machine.Exec.Exit 0L) outcome;
  (* returns the WOULD-BE length (6) but writes only 3 bytes + NUL *)
  Alcotest.(check string) "truncated write, full need" "6abc" stats.output

let test_memcpy_and_memset () =
  let _, stats =
    run_prog
      (compile
         {|
char a[8];
char b[8];
int main() {
  memset(a, 65, 7);
  a[7] = 0;
  memcpy(b, a, 8);
  print_str(b);
  return 0;
}
|})
  in
  Alcotest.(check string) "AAAAAAA" "AAAAAAA" stats.output

let test_input_byte_eof () =
  let _, stats =
    run_prog ~input:"x"
      (compile
         {|
int main() {
  print_int(input_byte());
  print_int(input_byte());
  return 0;
}
|})
  in
  Alcotest.(check string) "byte then EOF" "120-1" stats.output

let test_frame_adjacency () =
  (* callee buffers sit directly below caller locals: an overflow from
     the callee reaches the caller's frame — the property every DOP
     exploit here depends on *)
  let _, stats =
    run_prog
      (compile
         {|
void smash() {
  char buf[8];
  long i = 0;
  while (i < 24) { buf[i] = 66; i += 1; }
}
int main() {
  char cushion[64];
  long victim = 0;
  cushion[0] = 0;
  smash();
  print_int(victim != 0);
  return 0;
}
|})
  in
  Alcotest.(check string) "caller local corrupted" "1" stats.output

let test_stats_accounting () =
  let _, stats =
    run_prog
      (compile
         {|
long leaf() { char pad[100]; pad[0] = 1; return pad[0]; }
long mid() { return leaf(); }
int main() { return (int)(mid() - 1); }
|})
  in
  Alcotest.(check int) "calls" 3 stats.call_count;
  Alcotest.(check int) "max depth" 3 stats.max_depth;
  Alcotest.(check bool) "max frame >= 100" true (stats.max_frame_bytes >= 100);
  Alcotest.(check bool) "cycles positive" true (stats.cycles > 0.)

let test_intrinsic_unregistered () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  ignore (Ir.Builder.intrinsic b "no.such.intrinsic" []);
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let st = Machine.Exec.prepare prog in
  match Machine.Exec.run st with
  | Machine.Exec.Fault { fault = Machine.Memory.Misc _; _ }, _ -> ()
  | o, _ -> Alcotest.failf "expected fault, got %s" (Machine.Exec.outcome_to_string o)

let test_detect_exception_classified () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  ignore (Ir.Builder.intrinsic b "boom" []);
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let st = Machine.Exec.prepare prog in
  Machine.Exec.register_intrinsic st "boom" (fun _ _ ->
      raise (Machine.Exec.Detect "tripwire"));
  match Machine.Exec.run st with
  | Machine.Exec.Detected { reason = "tripwire"; _ }, _ -> ()
  | o, _ -> Alcotest.failf "expected detection, got %s" (Machine.Exec.outcome_to_string o)

let test_trace_records_calls () =
  let prog =
    compile
      {|
long leaf(long n) { long x = n + 1; return x; }
int main() { return (int)(leaf(41) - 42); }
|}
  in
  let st = Machine.Exec.prepare prog in
  let t = Machine.Trace.create () in
  Machine.Trace.attach t st;
  let outcome, _ = Machine.Exec.run st in
  Alcotest.(check bool) "ran" true (outcome = Machine.Exec.Exit 0L);
  let calls =
    List.filter_map
      (function Machine.Trace.Ev_call { func; _ } -> Some func | _ -> None)
      (Machine.Trace.events t)
  in
  Alcotest.(check (list string)) "call order" [ "main"; "leaf" ] calls;
  let rendered = Machine.Trace.render t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0);
  Alcotest.(check int) "nothing dropped" 0 (Machine.Trace.dropped t)

let test_trace_ring_bounds () =
  let prog =
    compile
      {|
long tick(long n) { return n; }
int main() {
  long i = 0;
  while (i < 100) { tick(i); i += 1; }
  return 0;
}
|}
  in
  let st = Machine.Exec.prepare prog in
  let t = Machine.Trace.create ~capacity:16 () in
  Machine.Trace.attach t st;
  ignore (Machine.Exec.run st);
  Alcotest.(check int) "ring holds capacity" 16
    (List.length (Machine.Trace.events t));
  Alcotest.(check bool) "drops counted" true (Machine.Trace.dropped t > 0)

(* Exact dropped accounting and render ~limit ordering on an overfilled
   ring, without a machine in the loop — Trace.record is the same hook
   attach installs. *)
let mk_ev i =
  Machine.Trace.Ev_intrinsic { name = Printf.sprintf "e%d" i; result = None }

let ev_name = function
  | Machine.Trace.Ev_intrinsic { name; _ } -> name
  | _ -> "?"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_trace_dropped_exact () =
  let t = Machine.Trace.create ~capacity:4 () in
  Alcotest.(check int) "empty ring" 0 (Machine.Trace.dropped t);
  for i = 0 to 3 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "exactly full: nothing dropped" 0
    (Machine.Trace.dropped t);
  Alcotest.(check int) "exactly full: all retained" 4
    (List.length (Machine.Trace.events t));
  Machine.Trace.record t (mk_ev 4);
  Alcotest.(check int) "one past capacity drops one" 1
    (Machine.Trace.dropped t);
  for i = 5 to 9 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "10 through a 4-ring drops 6" 6
    (Machine.Trace.dropped t);
  Alcotest.(check (list string))
    "survivors are the newest, oldest first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (List.map ev_name (Machine.Trace.events t))

let test_trace_capacity_one () =
  let t = Machine.Trace.create ~capacity:1 () in
  for i = 0 to 2 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "dropped" 2 (Machine.Trace.dropped t);
  Alcotest.(check (list string)) "only the newest" [ "e2" ]
    (List.map ev_name (Machine.Trace.events t))

let test_trace_render_limit () =
  let t = Machine.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Machine.Trace.record t (mk_ev i)
  done;
  (match String.split_on_char '\n' (String.trim (Machine.Trace.render ~limit:2 t)) with
  | [ drop; a; b ] ->
      Alcotest.(check bool) "drop banner first" true (contains drop "dropped");
      Alcotest.(check bool) "then e8" true (contains a "e8");
      Alcotest.(check bool) "then e9" true (contains b "e9")
  | lines ->
      Alcotest.failf "render ~limit:2 gave %d lines" (List.length lines));
  (* limit above retention: everything retained, oldest first *)
  let full = Machine.Trace.render ~limit:100 t in
  let pos needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length full then -1
      else if String.sub full i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun j ->
      Alcotest.(check bool) (Printf.sprintf "contains e%d" j) true (pos (Printf.sprintf "@e%d" j) >= 0))
    [ 6; 7; 8; 9 ];
  Alcotest.(check bool) "oldest first" true (pos "@e6" < pos "@e9");
  Alcotest.(check bool) "e5 gone" false (contains full "@e5")

let test_trace_captures_detection () =
  let prog =
    compile
      {|
void smash() {
  char buf[16];
  long x = 1;
  long i = 0;
  while (i < 200) { buf[i] = 90; i += 1; }
  x += buf[3];
}
int main() {
  char cushion[512];
  cushion[0] = 0;
  smash();
  return 0;
}
|}
  in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  let st =
    Smokestack.Harden.prepare hardened ~entropy:(Crypto.Entropy.create ~seed:2L)
  in
  let t = Machine.Trace.create () in
  Machine.Trace.attach t st;
  (match Machine.Exec.run st with
  | Machine.Exec.Detected _, _ -> ()
  | o, _ -> Alcotest.failf "expected detection, got %s" (Machine.Exec.outcome_to_string o));
  Alcotest.(check bool) "trace shows the detection" true
    (List.exists
       (function Machine.Trace.Ev_detected _ -> true | _ -> false)
       (Machine.Trace.events t))

(* ------------------------------------------------------------------ *)
(* Engine agreement: Machine.Agree names the first field that differs *)

let agree_base : Machine.Exec.stats =
  {
    cycles = 1234.5;
    instr_count = 100;
    call_count = 3;
    max_depth = 2;
    max_frame_bytes = 64;
    rss_bytes = 8192;
    output = "ok\n";
  }

let oob addr =
  Machine.Exec.Fault
    {
      fault = Machine.Memory.Out_of_bounds { addr; size = 8; op = "load" };
      func = "main";
    }

let diff_field r1 r2 =
  Option.map (fun (d : Machine.Agree.diff) -> d.field) (Machine.Agree.runs r1 r2)

let test_agree_identical () =
  Alcotest.(check (option string)) "identical runs agree" None
    (diff_field (oob 0x400000, agree_base) (oob 0x400000, agree_base))

(* One pair per field, each differing in that field alone. *)
let test_agree_names_each_field () =
  let b = agree_base in
  let o = Machine.Exec.Exit 0L in
  List.iter
    (fun (field, r1, r2) ->
      Alcotest.(check (option string)) field (Some field) (diff_field r1 r2))
    [
      ("cycles", (o, b), (o, { b with cycles = Float.succ b.cycles }));
      ("outcome", (oob 0x400000, b), (oob 0x400008, b));
      ("call_count", (o, b), (o, { b with call_count = 4 }));
      ("rss_bytes", (o, b), (o, { b with rss_bytes = 12288 }));
      ("output", (o, b), (o, { b with output = "ok" }));
      ("instr_count", (o, b), (o, { b with instr_count = 101 }));
      ("max_depth", (o, b), (o, { b with max_depth = 3 }));
      ("max_frame_bytes", (o, b), (o, { b with max_frame_bytes = 72 }));
      ("outcome", (o, b), (Machine.Exec.Exit 1L, b));
    ]

let test_agree_cycles_bit_exact () =
  let b = agree_base and o = Machine.Exec.Exit 0L in
  match Machine.Agree.runs (o, b) (o, { b with cycles = Float.succ b.cycles }) with
  | Some d ->
      Alcotest.(check string) "one ulp renders distinctly"
        "cycles differs: 0x1.34ap+10 vs 0x1.34a0000000001p+10"
        (Machine.Agree.diff_to_string d);
      Alcotest.(check (option string)) "signed zero is a difference"
        (Some "cycles")
        (diff_field (o, { b with cycles = 0. }) (o, { b with cycles = -0. }))
  | None -> Alcotest.fail "one-ulp cycle drift went unreported"

let test_agree_first_field_wins () =
  let b = agree_base in
  Alcotest.(check (option string)) "outcome reported before cycles"
    (Some "outcome")
    (diff_field (oob 1, b) (oob 2, { b with cycles = 0.; rss_bytes = 0 }))

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_memory_rw_roundtrip;
          Alcotest.test_case "write protection" `Quick test_memory_write_protection;
          Alcotest.test_case "oob and null" `Quick test_memory_oob_and_null;
          Alcotest.test_case "overlap rejected" `Quick test_memory_overlap_rejected;
          Alcotest.test_case "touched pages" `Quick test_touched_pages;
          Alcotest.test_case "cstring" `Quick test_cstring;
          Alcotest.test_case "frame-slot access" `Quick test_frame_slot_access;
          Alcotest.test_case "locate miss allocation-free" `Quick
            test_locate_miss_allocation_free;
        ] );
      ( "exec",
        [
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "exit builtin" `Quick test_exit_builtin;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_faults;
          Alcotest.test_case "wild pointer" `Quick test_wild_pointer_faults;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow_faults;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "frame adjacency" `Quick test_frame_adjacency;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "unregistered intrinsic" `Quick test_intrinsic_unregistered;
          Alcotest.test_case "detect classified" `Quick test_detect_exception_classified;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records calls" `Quick test_trace_records_calls;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          Alcotest.test_case "dropped exact" `Quick test_trace_dropped_exact;
          Alcotest.test_case "capacity one" `Quick test_trace_capacity_one;
          Alcotest.test_case "render limit" `Quick test_trace_render_limit;
          Alcotest.test_case "captures detection" `Quick test_trace_captures_detection;
        ] );
      ( "agree",
        [
          Alcotest.test_case "identical runs" `Quick test_agree_identical;
          Alcotest.test_case "names each field" `Quick
            test_agree_names_each_field;
          Alcotest.test_case "cycles bit-exact" `Quick
            test_agree_cycles_bit_exact;
          Alcotest.test_case "first field wins" `Quick
            test_agree_first_field_wins;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "strncpy size_t" `Quick test_strncpy_size_t_semantics;
          Alcotest.test_case "snprintf_cat" `Quick test_snprintf_cat_semantics;
          Alcotest.test_case "memcpy/memset" `Quick test_memcpy_and_memset;
          Alcotest.test_case "input_byte EOF" `Quick test_input_byte_eof;
        ] );
    ]
