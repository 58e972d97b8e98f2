(* Tier-1 tests for the bytecode execution engine (lib/engine) and the
   cycle cost model it must reproduce exactly.

   The engine's contract is bit-identity with Machine.Exec.run on every
   observable — outcome, output, float cycle count (order-sensitive
   additions!), instruction/call counts, depth/frame/RSS accounting and
   trace events.  These tests check the contract three ways: direct
   cost arithmetic on hand-built IR, targeted parity cases for every
   divergence-prone path (faults, traps, fuel, detection, laziness),
   and seeded differential fuzzing plus the full application matrix via
   Harness.Diffval. *)

let ref_backend = Machine.Backend.reference
let bc_backend = Engine.Backend.backend
let both = [ ("reference", ref_backend); ("bytecode", bc_backend) ]

let compile = Minic.Driver.compile

let run_both ?fuel ?(input = "") src =
  let prog = compile src in
  List.map
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      Machine.Exec.set_input st (Machine.Exec.input_string input);
      (label, b.run ?fuel st))
    both

(* Each engine's result against the first (the reference). *)
let against_first check results =
  match results with
  | (_, r1) :: rest -> List.iter (fun (label, r) -> check label r1 r) rest
  | [] -> ()

(* Run parity is Machine.Agree's verdict, field by field. *)
let agree what label r1 r =
  Option.iter
    (fun d ->
      Alcotest.failf "%s: %s vs reference: %s" what label
        (Machine.Agree.diff_to_string d))
    (Machine.Agree.runs r1 r)

let check_identical what results = against_first (agree what) results

let check_same_events what events =
  against_first
    (fun label e1 e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s events match reference" what label)
        true (e = e1))
    events

(* A traced run: its result (or the exception it raised) and its
   events. *)
let check_traced what results =
  check_same_events what (List.map (fun (l, (_, ev)) -> (l, ev)) results);
  against_first
    (fun label r1 r ->
      match (r1, r) with
      | Ok a, Ok b -> agree what label a b
      | Error a, Error b -> Alcotest.(check string) (what ^ ": " ^ label) a b
      | _ -> Alcotest.failf "%s: %s: only one engine raised" what label)
    (List.map (fun (l, (r, _)) -> (l, r)) results)

(* ------------------------------------------------------------------ *)
(* Cost model invariants *)

let test_cost_rng_aes_endpoints () =
  Alcotest.(check (float 0.))
    "AES-1 matches Table I" 19.2
    (Machine.Cost.rng_aes ~rounds:1);
  Alcotest.(check (float 0.))
    "AES-10 matches Table I" 92.8
    (Machine.Cost.rng_aes ~rounds:10);
  Alcotest.(check (float 0.)) "rng_aes1 endpoint" Machine.Cost.rng_aes1
    (Machine.Cost.rng_aes ~rounds:1);
  Alcotest.(check (float 0.)) "rng_aes10 endpoint" Machine.Cost.rng_aes10
    (Machine.Cost.rng_aes ~rounds:10)

let test_cost_rng_aes_bounds () =
  List.iter
    (fun rounds ->
      match Machine.Cost.rng_aes ~rounds with
      | _ -> Alcotest.failf "rounds=%d should be rejected" rounds
      | exception Invalid_argument _ -> ())
    [ 0; 11; -1 ]

let test_cost_rng_monotonic () =
  for rounds = 2 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "rng_aes %d > rng_aes %d" rounds (rounds - 1))
      true
      (Machine.Cost.rng_aes ~rounds > Machine.Cost.rng_aes ~rounds:(rounds - 1))
  done;
  Alcotest.(check bool)
    "pseudo < AES-1 < AES-10 < RDRAND" true
    (Machine.Cost.rng_pseudo < Machine.Cost.rng_aes1
    && Machine.Cost.rng_aes1 < Machine.Cost.rng_aes10
    && Machine.Cost.rng_aes10 < Machine.Cost.rng_rdrand)

let test_cost_structure () =
  let open Machine.Cost in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " positive") true (c > 0.))
    [
      ("alu", alu); ("div", div); ("load", load); ("load_rodata", load_rodata);
      ("store", store); ("alloca", alloca); ("branch", branch);
      ("cond_branch", cond_branch); ("call_overhead", call_overhead);
      ("intrinsic_base", intrinsic_base); ("syscall", syscall);
    ];
  Alcotest.(check bool) "div dominates alu (P-BOX pow2 payoff)" true (div > alu);
  Alcotest.(check bool) "rodata loads are cache-friendly" true
    (load_rodata < load)

(* Exact per-instruction charges, on hand-built IR so no compiler pass
   can change the instruction mix under the test.  Both engines must
   produce the same hand-computed total. *)
let straightline_prog () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let x = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Imm 40L) (Ir.Instr.Imm 2L) in
  let q =
    Ir.Builder.binop b Ir.Instr.Sdiv (Ir.Instr.Reg x) (Ir.Instr.Imm 7L)
  in
  let c =
    Ir.Builder.icmp b Ir.Instr.Sgt (Ir.Instr.Reg q) (Ir.Instr.Imm 0L)
  in
  let s =
    Ir.Builder.select b (Ir.Instr.Reg c) (Ir.Instr.Reg q) (Ir.Instr.Imm 0L)
  in
  let a = Ir.Builder.alloca b Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Reg s) ~addr:(Ir.Instr.Reg a);
  let l = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg a) in
  let g = Ir.Builder.gep b (Ir.Instr.Reg a) ~offset:0 in
  let _ = Ir.Builder.sext b ~width:4 (Ir.Instr.Reg l) in
  let _ = Ir.Builder.trunc b ~width:4 (Ir.Instr.Reg g) in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  prog

let straightline_cycles =
  let open Machine.Cost in
  call_overhead +. alu +. div +. alu +. alu +. alloca +. store +. load +. alu
  +. alu +. alu +. branch

let test_cost_per_instruction_charges () =
  let prog = straightline_prog () in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      let outcome, stats = b.run st in
      Alcotest.(check bool) (label ^ ": exits") true
        (outcome = Machine.Exec.Exit 0L);
      Alcotest.(check (float 0.))
        (label ^ ": hand-computed cycle total")
        straightline_cycles stats.cycles;
      Alcotest.(check int) (label ^ ": instr count") 10 stats.instr_count)
    both

(* ------------------------------------------------------------------ *)
(* Targeted engine parity: every divergence-prone path *)

let test_parity_outputs_and_stats () =
  check_identical "fib+output"
    (run_both
       {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
int main() { print_int(fib(18)); return 0; }
|})

let test_parity_fuel_exhaustion () =
  let results =
    run_both ~fuel:500 {| int main() { while (1) { } return 0; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      Alcotest.(check bool) (label ^ ": fuel exhausted") true
        (o = Machine.Exec.Fuel_exhausted))
    results;
  check_identical "fuel exhaustion" results

let test_parity_memory_fault () =
  let results =
    run_both {| int main() { int *p; p = 0; return *p; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Null_dereference; _ } -> ()
      | o ->
          Alcotest.failf "%s: expected null-deref fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "null deref" results

(* The structured fault-path contract both backends must share: a bad
   access produces a [Fault] outcome — never an OCaml exception — with
   the same fault payload on both engines. *)

let test_parity_rodata_write () =
  (* the string literal populates the rodata segment; 65536 is
     [Machine.Exec.rodata_base] *)
  let results =
    run_both
      {| int main() { int *p; print_str("ro"); p = (int*)65536; *p = 7; return 0; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault
          { fault = Machine.Memory.Write_protected { addr = 65536 }; _ } ->
          ()
      | o ->
          Alcotest.failf "%s: expected write-protected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "rodata write" results

let test_parity_unmapped_access () =
  (* 0x8000 lies between the function-token page and rodata: no
     segment maps it *)
  let results = run_both {| int main() { int *p; p = (int*)32768; return *p; } |} in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Out_of_bounds _; _ } -> ()
      | o ->
          Alcotest.failf "%s: expected out-of-bounds fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "unmapped access" results

let test_parity_straddling_load () =
  (* 0xCFFFFE is 2 bytes below the stack region's top: a 4-byte load
     starts mapped but runs off the end of the segment *)
  let results =
    run_both {| int main() { int *p; p = (int*)13631486; return *p; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault
          { fault = Machine.Memory.Out_of_bounds { addr = 13631486; size = 4; _ }; _ }
        ->
          ()
      | o ->
          Alcotest.failf "%s: expected straddling out-of-bounds fault, got %s"
            label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "straddling load" results

let test_parity_stack_overflow () =
  check_identical "stack overflow"
    (run_both
       {|
int deep(int n) { int pad[64]; pad[0] = n; return deep(n + pad[0] - n + 1); }
int main() { return deep(0); }
|})

let test_parity_vla_out_of_range () =
  check_identical "VLA out of range"
    (run_both
       {|
int main() { int n; int buf[n]; n = 0 - 5; buf[0] = n; return buf[0]; }
|})

(* An unknown direct callee must fault only when the call executes, and
   with the reference's message. *)
let unknown_callee_prog () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let c = Ir.Builder.icmp b Ir.Instr.Eq (Ir.Instr.Imm 1L) (Ir.Instr.Imm 1L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"good" ~if_false:"bad";
  let _ = Ir.Builder.start_block b "good" in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  let _ = Ir.Builder.start_block b "bad" in
  let _ = Ir.Builder.call b "no_such_function" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 1L));
  Ir.Prog.add_func prog f;
  prog

let test_parity_unknown_callee_lazy () =
  (* not executed: both engines must succeed *)
  let prog = unknown_callee_prog () in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      let outcome, _ = b.run st in
      Alcotest.(check bool)
        (label ^ ": dead unknown callee is harmless")
        true
        (outcome = Machine.Exec.Exit 0L))
    both

let test_parity_indirect_call_garbage () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.call_ind b (Ir.Instr.Imm 12345L) [ Ir.Instr.Imm 1L ] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        (label, bk.run (Machine.Exec.prepare prog)))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
          Alcotest.(check string)
            (label ^ ": non-function target message")
            "indirect call to non-function address 0x3039" m
      | o ->
          Alcotest.failf "%s: expected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "indirect call to non-function" results

let test_parity_unregistered_intrinsic () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.intrinsic b "ss_missing" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        (label, bk.run (Machine.Exec.prepare prog)))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
          Alcotest.(check string)
            (label ^ ": unregistered intrinsic message")
            "unregistered intrinsic ss_missing" m
      | o ->
          Alcotest.failf "%s: expected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "unregistered intrinsic" results

let test_parity_detection () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.intrinsic b "ss_tripwire" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        let st = Machine.Exec.prepare prog in
        Machine.Exec.register_intrinsic st "ss_tripwire" (fun _ _ ->
            raise (Machine.Exec.Detect "fid mismatch"));
        (label, bk.run st))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Detected { reason = "fid mismatch"; func = "main" } -> ()
      | o ->
          Alcotest.failf "%s: expected detection, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "detection" results

(* The reference evaluates only the taken select arm; an unresolvable
   operand in the dead arm must stay dormant on both engines. *)
let select_lazy_prog ~take_bad =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let cond = if take_bad then 0L else 1L in
  let s =
    Ir.Builder.select b (Ir.Instr.Imm cond) (Ir.Instr.Imm 0L)
      (Ir.Instr.Global "no_such_global")
  in
  Ir.Builder.ret b (Some (Ir.Instr.Reg s));
  Ir.Prog.add_func prog f;
  prog

let test_parity_select_lazy_arms () =
  List.iter
    (fun (label, (bk : Machine.Backend.t)) ->
      let outcome, _ = bk.run (Machine.Exec.prepare (select_lazy_prog ~take_bad:false)) in
      Alcotest.(check bool)
        (label ^ ": dead bad arm never evaluated")
        true
        (outcome = Machine.Exec.Exit 0L))
    both;
  (* taken bad arm: the reference raises Invalid_argument out of run *)
  List.iter
    (fun (label, (bk : Machine.Backend.t)) ->
      match bk.run (Machine.Exec.prepare (select_lazy_prog ~take_bad:true)) with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" label
      | exception Invalid_argument m ->
          Alcotest.(check string)
            (label ^ ": unknown-global message")
            "Machine.Exec.global_addr: no global no_such_global" m)
    both

let test_parity_trace_events () =
  let prog =
    compile
      {|
int helper(int x) { return x * 3; }
int main() { print_int(helper(2) + helper(5)); return 0; }
|}
  in
  let traces =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        let st = Machine.Exec.prepare prog in
        let t = Machine.Trace.create () in
        Machine.Trace.attach t st;
        let _ = bk.run st in
        (label, Machine.Trace.events t))
      both
  in
  check_same_events "trace events" traces

(* ------------------------------------------------------------------ *)
(* Parity of the unboxed dispatch paths: inline arithmetic, frame-slot
   loads and stores, and calls that fill the callee's frame directly.
   An OCaml exception escaping [run] is part of the observable. *)

let run_traced_both prog =
  List.map
    (fun (label, (bk : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      let t = Machine.Trace.create () in
      Machine.Trace.attach t st;
      let r =
        match bk.run st with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      (label, (r, Machine.Trace.events t)))
    both

let main_prog build =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_extern prog "print_int";
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  build prog b;
  Ir.Prog.add_func prog f;
  prog

let print b v = ignore (Ir.Builder.call b "print_int" [ v ])

(* a register holding [v], so a value reaches an op from the frame
   rather than as an immediate *)
let in_reg b v =
  Ir.Instr.Reg (Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Imm v) (Ir.Instr.Imm 0L))

let expect_outcome what expected results =
  List.iter
    (fun (label, (r, _)) ->
      match r with
      | Ok (o, _) when o = expected -> ()
      | Ok (o, _) ->
          Alcotest.failf "%s: %s: got %s" what label
            (Machine.Exec.outcome_to_string o)
      | Error e -> Alcotest.failf "%s: %s: raised %s" what label e)
    results;
  check_traced what results

let expect_raise what expected results =
  List.iter
    (fun (label, (r, _)) ->
      match r with
      | Error e -> Alcotest.(check string) (what ^ ": " ^ label) expected e
      | Ok (o, _) ->
          Alcotest.failf "%s: %s: expected %s, got %s" what label expected
            (Machine.Exec.outcome_to_string o))
    results;
  check_traced what results

let test_parity_division_by_zero () =
  List.iter
    (fun (name, op) ->
      List.iter
        (fun zero_in_reg ->
          let prog =
            main_prog (fun _ b ->
                let zero = if zero_in_reg then in_reg b 0L else Ir.Instr.Imm 0L in
                let q = Ir.Builder.binop b op (Ir.Instr.Imm 7L) zero in
                Ir.Builder.ret b (Some (Ir.Instr.Reg q)))
          in
          expect_outcome
            (Printf.sprintf "%s by zero%s" name
               (if zero_in_reg then " (register)" else ""))
            (Machine.Exec.Fault
               { fault = Machine.Memory.Misc "division by zero"; func = "main" })
            (run_traced_both prog))
        [ false; true ])
    Ir.Instr.[ ("sdiv", Sdiv); ("udiv", Udiv); ("srem", Srem); ("urem", Urem) ]

(* every binop and icmp on high-bit and negative operands; the
   expected output is Machine.Exec's own evaluator *)
let test_parity_arith_values () =
  let values =
    [ 0L; 1L; 3L; -1L; -2L; 7L; Int64.min_int; Int64.max_int; 0x8000_0000L ]
  in
  let binops =
    Ir.Instr.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr ]
  in
  let icmps = Ir.Instr.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule ] in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) values) values
    |> List.filter (fun (_, b) -> b <> 0L)
  in
  let expected = Buffer.create 4096 in
  let prog =
    main_prog (fun _ b ->
        List.iter
          (fun (x, y) ->
            let a = in_reg b x and c = in_reg b y in
            List.iter
              (fun op ->
                Buffer.add_string expected
                  (Int64.to_string (Machine.Exec.eval_binop op x y));
                print b (Ir.Instr.Reg (Ir.Builder.binop b op a c)))
              binops;
            List.iter
              (fun op ->
                Buffer.add_string expected
                  (Int64.to_string (Machine.Exec.eval_icmp op x y));
                print b (Ir.Instr.Reg (Ir.Builder.icmp b op a c)))
              icmps)
          pairs;
        Ir.Builder.ret b (Some (Ir.Instr.Imm 0L)))
  in
  let results = run_traced_both prog in
  List.iter
    (fun (label, (r, _)) ->
      match r with
      | Ok (_, (stats : Machine.Exec.stats)) ->
          Alcotest.(check string) (label ^ ": values") (Buffer.contents expected)
            stats.output
      | Error e -> Alcotest.failf "%s raised %s" label e)
    results;
  check_traced "arithmetic values" results

let ty_of_width = function
  | 1 -> Ir.Ty.I8
  | 2 -> Ir.Ty.I16
  | 4 -> Ir.Ty.I32
  | _ -> Ir.Ty.I64

(* Each width's store writes only its bytes, its load zero-extends,
   and sext/trunc agree with Sutil.Bytecodec — from a register value
   (a frame-slot store) and from an immediate. *)
let test_parity_width_roundtrip () =
  let values =
    [ 0x80L; 0xffL; -1L; -2L; 0x8000L; 0x7fff_ffffL; 0x8000_0000L; Int64.min_int;
      0x1234_5678_9abc_def0L; -0x1_2345_6789L ]
  in
  let filler = 0x5a5a_5a5a_5a5a_5a5aL in
  let expected = Buffer.create 1024 in
  let prog =
    main_prog (fun _ b ->
        let slot = Ir.Builder.alloca b Ir.Ty.I64 in
        List.iter
          (fun width ->
            let ty = ty_of_width width in
            List.iter
              (fun v ->
                List.iter
                  (fun from_reg ->
                    let z = Sutil.Bytecodec.zext ~width v in
                    let mask = Sutil.Bytecodec.zext ~width (-1L) in
                    List.iter
                      (fun x -> Buffer.add_string expected (Int64.to_string x))
                      [ z; Sutil.Bytecodec.sext ~width z; z;
                        Sutil.Bytecodec.sext ~width v;
                        Int64.logor (Int64.logand filler (Int64.lognot mask)) z ];
                    let reg r = Ir.Instr.Reg r in
                    Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm filler)
                      ~addr:(reg slot);
                    let value = if from_reg then in_reg b v else Ir.Instr.Imm v in
                    Ir.Builder.store b ty ~value ~addr:(reg slot);
                    let l = Ir.Builder.load b ty (reg slot) in
                    print b (reg l);
                    print b (reg (Ir.Builder.sext b ~width (reg l)));
                    print b (reg (Ir.Builder.trunc b ~width value));
                    print b (reg (Ir.Builder.sext b ~width value));
                    print b (reg (Ir.Builder.load b Ir.Ty.I64 (reg slot))))
                  [ true; false ])
              values)
          [ 1; 2; 4; 8 ];
        Ir.Builder.ret b (Some (Ir.Instr.Imm 0L)))
  in
  let results = run_traced_both prog in
  List.iter
    (fun (label, (r, _)) ->
      match r with
      | Ok (_, (stats : Machine.Exec.stats)) ->
          Alcotest.(check string) (label ^ ": values") (Buffer.contents expected)
            stats.output
      | Error e -> Alcotest.failf "%s raised %s" label e)
    results;
  check_traced "width round trip" results

(* The reference evaluates a store's value before its address: with two
   different unresolvable operands, the value's error must win. *)
let test_parity_store_operand_order () =
  let store ~value ~addr =
    main_prog (fun _ b ->
        Ir.Builder.store b Ir.Ty.I64 ~value ~addr;
        Ir.Builder.ret b (Some (Ir.Instr.Imm 0L)))
  in
  expect_raise "trapping store value"
    "Invalid_argument(\"Machine.Exec.global_addr: no global no_such_global\")"
    (run_traced_both
       (store ~value:(Ir.Instr.Global "no_such_global")
          ~addr:(Ir.Instr.Func_ref "no_such_fn")));
  expect_outcome "trapping store value (fault)"
    (Machine.Exec.Fault
       {
         fault = Machine.Memory.Misc "unknown function reference no_such_fn";
         func = "main";
       })
    (run_traced_both
       (store ~value:(Ir.Instr.Func_ref "no_such_fn")
          ~addr:(Ir.Instr.Global "no_such_global")))

(* Arguments are evaluated left to right — traps first — then the call
   is counted and traced, then the arity fault fires, on direct and
   indirect calls alike. *)
let arity_prog ~indirect args =
  main_prog (fun prog b ->
      let f =
        Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I64) ] ~returns:(Some Ir.Ty.I64)
      in
      let fb = Ir.Builder.create f in
      Ir.Builder.ret fb (Some (Ir.Instr.Reg 0));
      Ir.Prog.add_func prog f;
      let r =
        if indirect then
          Ir.Builder.call_ind b ~result:true (Ir.Instr.Func_ref "f") args
        else Ir.Builder.call b ~result:true "f" args
      in
      Ir.Builder.ret b (Option.map (fun r -> Ir.Instr.Reg r) r))

let test_parity_arity_mismatch () =
  List.iter
    (fun indirect ->
      let what s = (if indirect then "indirect " else "direct ") ^ s in
      let arity n =
        Machine.Exec.Fault
          {
            fault =
              Machine.Memory.Misc
                (Printf.sprintf "call to f with %d args, expected 1" n);
            func = "f";
          }
      in
      expect_outcome (what "too many") (arity 2)
        (run_traced_both (arity_prog ~indirect Ir.Instr.[ Imm 1L; Imm 2L ]));
      expect_outcome (what "too few") (arity 0)
        (run_traced_both (arity_prog ~indirect []));
      expect_raise (what "surplus argument traps")
        "Invalid_argument(\"Machine.Exec.global_addr: no global no_such_global\")"
        (run_traced_both
           (arity_prog ~indirect
              Ir.Instr.[ Imm 1L; Global "no_such_global"; Func_ref "no_such_fn" ]));
      expect_outcome (what "first trapping argument wins")
        (Machine.Exec.Fault
           {
             fault = Machine.Memory.Misc "unknown function reference no_such_fn";
             func = "main";
           })
        (run_traced_both
           (arity_prog ~indirect
              Ir.Instr.[ Func_ref "no_such_fn"; Global "no_such_global" ]));
      expect_outcome (what "matching arity") (Machine.Exec.Exit 5L)
        (run_traced_both (arity_prog ~indirect Ir.Instr.[ Imm 5L ])))
    [ false; true ]

(* A call without a destination drops the callee's value; a call with
   one gets 0 from a void callee. *)
let test_parity_void_calls () =
  let prog =
    main_prog (fun prog b ->
        let value =
          Ir.Func.create ~name:"value" ~params:[] ~returns:(Some Ir.Ty.I64)
        in
        Ir.Builder.ret (Ir.Builder.create value) (Some (Ir.Instr.Imm 42L));
        let void = Ir.Func.create ~name:"void" ~params:[] ~returns:None in
        Ir.Builder.ret (Ir.Builder.create void) None;
        Ir.Prog.add_func prog value;
        Ir.Prog.add_func prog void;
        let kept = in_reg b 7L in
        ignore (Ir.Builder.call b "value" []);
        ignore (Ir.Builder.call_ind b (Ir.Instr.Func_ref "value") []);
        let r = Option.get (Ir.Builder.call b ~result:true "void" []) in
        print b (Ir.Instr.Reg r);
        print b kept;
        Ir.Builder.ret b (Some kept))
  in
  let results = run_traced_both prog in
  expect_outcome "void calls" (Machine.Exec.Exit 7L) results;
  List.iter
    (fun (label, (r, _)) ->
      match r with
      | Ok (_, (stats : Machine.Exec.stats)) ->
          Alcotest.(check string) (label ^ ": output") "07" stats.output
      | Error _ -> ())
    results

(* Registers outside the function's register count (IR the verifier
   rejects): frames are accessed unchecked, so the bytecode compiles
   these to traps that raise the reference's out-of-bounds error at
   the same point — a read before any side effect of its op, a write
   after them. *)
let test_parity_out_of_range_registers () =
  let oob = "Invalid_argument(\"index out of bounds\")" in
  let bad_read =
    main_prog (fun _ b ->
        print b (Ir.Instr.Imm 1L);
        let r =
          Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg 99) (Ir.Instr.Imm 1L)
        in
        Ir.Builder.ret b (Some (Ir.Instr.Reg r)))
  in
  expect_raise "read of register 99" oob (run_traced_both bad_read);
  let bad_write ~dst =
    main_prog (fun _ b ->
        (* the load's fault would come first if the write were early *)
        (Ir.Builder.current_block b).instrs <-
          [ Ir.Instr.Load { dst; ty = Ir.Ty.I64; addr = Ir.Instr.Imm 0L } ];
        Ir.Builder.ret b (Some (Ir.Instr.Imm 0L)))
  in
  List.iter
    (fun dst ->
      expect_outcome
        (Printf.sprintf "faulting load into register %d" dst)
        (Machine.Exec.Fault
           { fault = Machine.Memory.Null_dereference; func = "main" })
        (run_traced_both (bad_write ~dst)))
    [ 99; -1 ];
  (* [f] returns 3 from parameter register [param]; main runs [body] *)
  let with_callee ~param body =
    main_prog (fun prog b ->
        let f =
          Ir.Func.create ~name:"f" ~params:[ (param, Ir.Ty.I64) ]
            ~returns:(Some Ir.Ty.I64)
        in
        Ir.Builder.ret (Ir.Builder.create f) (Some (Ir.Instr.Imm 3L));
        Ir.Prog.add_func prog f;
        (Ir.Builder.current_block b).instrs <- body;
        Ir.Builder.ret b (Some (Ir.Instr.Imm 0L)))
  in
  let add dst =
    Ir.Instr.Binop
      { dst; op = Ir.Instr.Add; lhs = Ir.Instr.Imm 1L; rhs = Ir.Instr.Imm 2L }
  in
  let call dst = Ir.Instr.Call { dst; callee = "f"; args = [ Ir.Instr.Imm 1L ] } in
  List.iter
    (fun dst ->
      expect_raise (Printf.sprintf "write of register %d" dst) oob
        (run_traced_both (with_callee ~param:0 [ add dst; call None ])))
    [ 99; -1 ];
  (* the callee runs, returns and is traced before the write fails *)
  expect_raise "call into register 99" oob
    (run_traced_both (with_callee ~param:0 [ call (Some 99) ]));
  expect_raise "parameter register -1" oob
    (run_traced_both (with_callee ~param:(-1) [ call None ]))

(* ------------------------------------------------------------------ *)
(* Allocation: the dispatch loop allocates only on calls, builtins,
   intrinsics, trace events and faults, so a loop-dominated kernel
   stays far below one minor word per executed instruction.  The count
   is deterministic for a given binary. *)

let test_bytecode_minor_words () =
  let w = Option.get (Apps.Spec.find "mcf") in
  let prog = Lazy.force w.program in
  let run () =
    let st = Machine.Exec.prepare prog in
    Machine.Exec.set_input st (Machine.Exec.input_string w.input);
    let w0 = Gc.minor_words () in
    let outcome, stats = Engine.Interp.run st in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "mcf exits" true
      (match outcome with Machine.Exec.Exit _ -> true | _ -> false);
    words /. float_of_int stats.instr_count
  in
  (* the first run compiles and caches the bytecode *)
  ignore (run ());
  let per_instr = run () in
  if per_instr >= 0.5 then
    Alcotest.failf "mcf on bytecode: %.3f minor words per instruction (>= 0.5)"
      per_instr

(* ------------------------------------------------------------------ *)
(* Backend registry *)

let test_backend_registry () =
  Alcotest.(check bool) "reference always registered" true
    (Option.is_some (Machine.Backend.find_opt Machine.Backend.Reference));
  Engine.Backend.install ();
  Alcotest.(check bool) "bytecode registered after install" true
    (Option.is_some (Machine.Backend.find_opt Machine.Backend.Bytecode));
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Machine.Backend.kind_to_string kind ^ " name round-trips")
        true
        (Machine.Backend.kind_of_string (Machine.Backend.kind_to_string kind)
        = Some kind))
    Machine.Backend.all_kinds;
  Alcotest.(check bool) "aliases resolve" true
    (Machine.Backend.kind_of_string "bc" = Some Machine.Backend.Bytecode
    && Machine.Backend.kind_of_string "interp" = Some Machine.Backend.Reference
    && Machine.Backend.kind_of_string "nonsense" = None);
  let saved = (Machine.Backend.default ()).kind in
  Machine.Backend.set_default Machine.Backend.Bytecode;
  Alcotest.(check string) "set_default switches" "bytecode"
    (Machine.Backend.default ()).label;
  Machine.Backend.set_default saved

(* ------------------------------------------------------------------ *)
(* Differential validation: fuzzed programs + the application matrix *)

let test_diffval_progen () =
  let report = Harness.Diffval.check_progen ~seed:1000L 50 in
  if not (Harness.Diffval.ok report) then
    Alcotest.fail (Harness.Diffval.report_to_string report);
  Alcotest.(check int) "all seeds ran" 50 report.cases

let test_diffval_apps () =
  let report = Harness.Diffval.check_apps () in
  if not (Harness.Diffval.ok report) then
    Alcotest.fail (Harness.Diffval.report_to_string report)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "cost",
        [
          Alcotest.test_case "rng_aes endpoints" `Quick
            test_cost_rng_aes_endpoints;
          Alcotest.test_case "rng_aes bounds" `Quick test_cost_rng_aes_bounds;
          Alcotest.test_case "rng monotonicity" `Quick test_cost_rng_monotonic;
          Alcotest.test_case "charge structure" `Quick test_cost_structure;
          Alcotest.test_case "per-instruction charges" `Quick
            test_cost_per_instruction_charges;
        ] );
      ( "parity",
        [
          Alcotest.test_case "outputs and stats" `Quick
            test_parity_outputs_and_stats;
          Alcotest.test_case "fuel exhaustion" `Quick test_parity_fuel_exhaustion;
          Alcotest.test_case "memory fault" `Quick test_parity_memory_fault;
          Alcotest.test_case "rodata write" `Quick test_parity_rodata_write;
          Alcotest.test_case "unmapped access" `Quick test_parity_unmapped_access;
          Alcotest.test_case "straddling load" `Quick test_parity_straddling_load;
          Alcotest.test_case "stack overflow" `Quick test_parity_stack_overflow;
          Alcotest.test_case "VLA out of range" `Quick
            test_parity_vla_out_of_range;
          Alcotest.test_case "unknown callee is lazy" `Quick
            test_parity_unknown_callee_lazy;
          Alcotest.test_case "indirect call garbage" `Quick
            test_parity_indirect_call_garbage;
          Alcotest.test_case "unregistered intrinsic" `Quick
            test_parity_unregistered_intrinsic;
          Alcotest.test_case "detection" `Quick test_parity_detection;
          Alcotest.test_case "select arms stay lazy" `Quick
            test_parity_select_lazy_arms;
          Alcotest.test_case "trace events" `Quick test_parity_trace_events;
          Alcotest.test_case "division by zero" `Quick
            test_parity_division_by_zero;
          Alcotest.test_case "arithmetic values" `Quick test_parity_arith_values;
          Alcotest.test_case "load/store widths" `Quick
            test_parity_width_roundtrip;
          Alcotest.test_case "store operand order" `Quick
            test_parity_store_operand_order;
          Alcotest.test_case "arity mismatch" `Quick test_parity_arity_mismatch;
          Alcotest.test_case "void calls" `Quick test_parity_void_calls;
          Alcotest.test_case "out-of-range registers" `Quick
            test_parity_out_of_range_registers;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "mcf below 0.5 minor words per instruction" `Quick
            test_bytecode_minor_words;
        ] );
      ( "backend",
        [ Alcotest.test_case "registry" `Quick test_backend_registry ] );
      ( "diffval",
        [
          Alcotest.test_case "50 progen programs" `Slow test_diffval_progen;
          Alcotest.test_case "application matrix" `Slow test_diffval_apps;
        ] );
    ]
