(* Single-layer probes for the traced run: each times one public call
   in a loop, away from the rest of the pipeline, and reports the
   median of several batches. *)

let batches = 5

let per_call ~calls f =
  Sutil.Stats.median
    (List.init batches (fun _ ->
         snd
           (Clock.time (fun () ->
                for _ = 1 to calls do
                  f ()
                done))
         /. float_of_int calls))

let aes_block_us () =
  let entropy = Crypto.Entropy.create ~seed:11L in
  let key = Crypto.Aes.expand_key (Crypto.Entropy.bytes entropy 16) in
  let block = Crypto.Entropy.bytes entropy 16 in
  1e6 *. per_call ~calls:2000 (fun () -> ignore (Crypto.Aes.encrypt_block key block))

let aes10_draw_us () =
  let gen = Rng.Generator.create Rng.Scheme.aes10 ~entropy:(Crypto.Entropy.create ~seed:11L) in
  1e6 *. per_call ~calls:4000 (fun () -> ignore (Rng.Generator.next_u64 gen))

(* [Machine.Exec.prepare] on a hardened kernel: ms per call and MB
   allocated per call. *)
let prepare () =
  let w = Option.get (Apps.Spec.find "gobmk") in
  let prog =
    (Smokestack.Harden.harden ~validate:false Leg.harden_config (Minic.Driver.compile w.source))
      .prog
  in
  let calls = 40 in
  let a0 = Gc.allocated_bytes () in
  let ms = 1e3 *. per_call ~calls (fun () -> ignore (Machine.Exec.prepare prog)) in
  let bytes = (Gc.allocated_bytes () -. a0) /. float_of_int (calls * batches) in
  (ms, bytes /. 1048576.)

(* [Store.Cache.put] and [find] on a fresh disk store, synthetic
   execution entries: ms per put, per hit. *)
let store ~out =
  let dir, store = Campaign_w.fresh_store ~out "probe" in
  let stats : Machine.Exec.stats =
    {
      cycles = 1234.5;
      instr_count = 1000;
      call_count = 10;
      max_depth = 3;
      max_frame_bytes = 256;
      rss_bytes = 4096;
      output = "42\n";
    }
  in
  let entry =
    Store.Entry.exec_entry
      (Store.Entry.exec_of_run (Machine.Exec.Exit 0L, stats))
  in
  let n = 200 in
  let keys =
    Array.init (n * batches) (fun i ->
        Store.Key.v ~source:(Printf.sprintf "probe-%d" i) ~config:"none"
          ~engine:Machine.Backend.Reference ~seed:(Int64.of_int i) ())
  in
  let next = ref 0 in
  let put_ms =
    1e3
    *. per_call ~calls:n (fun () ->
           Store.Cache.put store keys.(!next) entry;
           incr next)
  in
  next := 0;
  let find_ms =
    1e3
    *. per_call ~calls:n (fun () ->
           let hit = Store.Cache.find store keys.(!next) in
           incr next;
           Check.expect (Option.is_some hit) "store probe: entry written is not found")
  in
  Campaign_w.rm_rf dir;
  (put_ms, find_ms)
