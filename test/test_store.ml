(* Tests for the artifact store (lib/store): content-addressed keys,
   versioned entry codecs with bit-exact floats, the crash-safe disk
   backend (atomic writes, corruption quarantined as a miss), and the
   campaign runner's headline invariants — warm replay and resume both
   render byte-identical reports. *)

module Cache = Store.Cache
module Key = Store.Key
module Entry = Store.Entry
module Campaign = Store.Campaign

(* ------------------------------------------------------------------ *)
(* Temp directories (no Unix dependency beyond getpid) *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "smokestack-test-store-%d-%d" (Unix.getpid ())
       !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_disk_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Cache.open_disk dir) dir)

(* ------------------------------------------------------------------ *)
(* Keys *)

let base_key ?(source_text = "int main() { return 0; }") ?config
    ?(engine = Machine.Backend.Reference) ?(seed = 7L) ?(extra = "t") () =
  Key.of_source ~source_text ~config ~engine ~seed ~extra ()

let test_key_deterministic () =
  let k1 = base_key () and k2 = base_key () in
  Alcotest.(check bool) "equal" true (Key.equal k1 k2);
  Alcotest.(check string) "same id" (Key.id k1) (Key.id k2);
  Alcotest.(check string) "same rendering" (Key.to_string k1)
    (Key.to_string k2)

let test_key_distinct_per_field () =
  let variants =
    [
      ("base", base_key ());
      ("source", base_key ~source_text:"int main() { return 1; }" ());
      ("config", base_key ~config:Smokestack.Config.default ());
      ( "config'",
        base_key
          ~config:(Smokestack.Config.with_selective true Smokestack.Config.default)
          () );
      ("engine", base_key ~engine:Machine.Backend.Bytecode ());
      ("seed", base_key ~seed:8L ());
      ("extra", base_key ~extra:"t2" ());
    ]
  in
  List.iteri
    (fun i (ni, ki) ->
      List.iteri
        (fun j (nj, kj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s ids differ" ni nj)
              false
              (String.equal (Key.id ki) (Key.id kj)))
        variants)
    variants

let test_key_json_roundtrip () =
  let k = base_key ~config:Smokestack.Config.default ~seed:(-3L) () in
  match Key.of_json (Key.to_json k) with
  | None -> Alcotest.fail "key did not round-trip through JSON"
  | Some k' -> Alcotest.(check bool) "round-tripped key equal" true (Key.equal k k')

(* ------------------------------------------------------------------ *)
(* Entry codecs *)

let sample_stats =
  {
    Machine.Exec.cycles = 0.1 +. 0.2 (* not exactly representable as text *);
    instr_count = 12345;
    call_count = 678;
    max_depth = 9;
    max_frame_bytes = 256;
    rss_bytes = 4096;
    output = "hello\n\xE2\x98\x83 \"quoted\"";
  }

let sample_exec =
  {
    Entry.outcome = "exit 0";
    exit_code = Some 0L;
    stats = sample_stats;
    pbox_bytes = Some 192;
  }

(* Machine.Agree covers the outcome and every stats field (cycles bit
   for bit); the exit code and P-BOX size are the record's own. *)
let check_exec_equal msg (a : Entry.exec) (b : Entry.exec) =
  Option.iter
    (fun d -> Alcotest.failf "%s: %s" msg (Machine.Agree.diff_to_string d))
    (Machine.Agree.first_diff (a.outcome, a.stats) (b.outcome, b.stats));
  Alcotest.(check (option int64)) (msg ^ ": exit code") a.exit_code b.exit_code;
  Alcotest.(check (option int)) (msg ^ ": pbox") a.pbox_bytes b.pbox_bytes

let test_exec_codec_roundtrip () =
  match Entry.exec_of_entry (Entry.exec_entry sample_exec) with
  | None -> Alcotest.fail "exec entry did not decode"
  | Some e -> check_exec_equal "round-trip" sample_exec e

let test_exec_codec_version_mismatch_is_miss () =
  let entry = Entry.exec_entry sample_exec in
  let future = { entry with Entry.version = entry.Entry.version + 1 } in
  Alcotest.(check bool)
    "future version decodes to None" true
    (Option.is_none (Entry.exec_of_entry future));
  let foreign = { entry with Entry.kind = "something-else" } in
  Alcotest.(check bool)
    "foreign kind decodes to None" true
    (Option.is_none (Entry.exec_of_entry foreign))

let test_verdicts_codec_roundtrip () =
  let verdicts =
    [ ("detected", "permuted slot"); ("crashed", "fault in f: oob"); ("no-effect", "") ]
  in
  Alcotest.(check (option (list (pair string string))))
    "verdicts round-trip" (Some verdicts)
    (Entry.verdicts_of_entry (Entry.verdicts_entry verdicts))

let test_validate_codec_roundtrip () =
  let rows =
    [
      ("no-stack-escape", "main", Some 3, "address of local escapes");
      ("fid-check", "helper", None, "missing check");
    ]
  in
  (match Entry.validate_of_entry (Entry.validate_entry ~clean:false rows) with
  | None -> Alcotest.fail "validate entry did not decode"
  | Some (clean, rows') ->
      Alcotest.(check bool) "clean flag" false clean;
      Alcotest.(check int) "row count" (List.length rows) (List.length rows');
      List.iter2
        (fun (r, f, row, d) (r', f', row', d') ->
          Alcotest.(check string) "rule" r r';
          Alcotest.(check string) "func" f f';
          Alcotest.(check (option int)) "row" row row';
          Alcotest.(check string) "detail" d d')
        rows rows');
  Alcotest.(check bool)
    "clean result round-trips" true
    (match Entry.validate_of_entry (Entry.validate_entry ~clean:true []) with
    | Some (true, []) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Disk backend *)

let test_disk_roundtrip_and_counters () =
  with_disk_store @@ fun store _dir ->
  let key = base_key () in
  Alcotest.(check bool) "cold find misses" true (Option.is_none (Cache.find store key));
  Cache.put store key (Entry.exec_entry sample_exec);
  (match Cache.find store key with
  | None -> Alcotest.fail "entry vanished after put"
  | Some e -> (
      match Entry.exec_of_entry e with
      | None -> Alcotest.fail "stored entry did not decode"
      | Some exec -> check_exec_equal "disk round-trip" sample_exec exec));
  let s = Cache.stats store in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "writes" 1 s.Cache.writes;
  Alcotest.(check int) "evicted" 0 s.Cache.evicted;
  Alcotest.(check bool) "mem sees it" true (Cache.mem store key);
  Alcotest.(check bool)
    "mem leaves counters alone" true
    (Cache.stats store = s)

let test_disk_survives_reopen () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let key = base_key () in
  Cache.put (Cache.open_disk dir) key (Entry.exec_entry sample_exec);
  let store = Cache.open_disk dir in
  match Cache.find store key with
  | None -> Alcotest.fail "entry not visible from a second handle"
  | Some e ->
      check_exec_equal "reopened"
        sample_exec
        (Option.get (Entry.exec_of_entry e))

let object_path root key =
  let id = Key.id key in
  Filename.concat
    (Filename.concat (Filename.concat root "objects") (String.sub id 0 2))
    (id ^ ".json")

let truncate_file path len =
  let ic = open_in_bin path in
  let keep = min len (in_channel_length ic) in
  let prefix = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc prefix;
  close_out oc

let test_corrupt_entry_is_quarantined_miss () =
  with_disk_store @@ fun store dir ->
  let key = base_key () in
  Cache.put store key (Entry.exec_entry sample_exec);
  truncate_file (object_path dir key) 17;
  Cache.reset_stats store;
  Alcotest.(check bool)
    "truncated entry is a miss, not a crash" true
    (Option.is_none (Cache.find store key));
  let s = Cache.stats store in
  Alcotest.(check int) "counted as miss" 1 s.Cache.misses;
  Alcotest.(check int) "counted as eviction" 1 s.Cache.evicted;
  Alcotest.(check bool)
    "offending file moved aside" false
    (Sys.file_exists (object_path dir key));
  Alcotest.(check bool)
    "quarantine holds it" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) > 0);
  (* the caller recomputes and overwrites; the store heals *)
  Cache.put store key (Entry.exec_entry sample_exec);
  Alcotest.(check bool) "healed" true (Option.is_some (Cache.find store key))

let test_key_echo_mismatch_is_miss () =
  with_disk_store @@ fun store dir ->
  let key = base_key () and other = base_key ~extra:"other" () in
  Cache.put store key (Entry.exec_entry sample_exec);
  (* graft key's entry file onto other's address: a hash collision or a
     hand-copied file must never serve the wrong key *)
  let dst = object_path dir other in
  let dstdir = Filename.dirname dst in
  if not (Sys.file_exists dstdir) then Sys.mkdir dstdir 0o755;
  let ic = open_in_bin (object_path dir key) in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc body;
  close_out oc;
  Alcotest.(check bool)
    "foreign entry degraded to a miss" true
    (Option.is_none (Cache.find store other))

let test_incompatible_manifest_version () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "manifest.json") in
  output_string oc "{\"smokestack-store\": 999}\n";
  close_out oc;
  match Cache.open_disk dir with
  | _ -> Alcotest.fail "version-mismatched store opened without complaint"
  | exception Cache.Incompatible msg ->
      Alcotest.(check bool)
        "diagnostic names the version" true
        (contains_substring msg "999")

let test_foreign_directory_rejected () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "unrelated.txt") in
  output_string oc "not a store\n";
  close_out oc;
  Alcotest.(check bool)
    "non-empty non-store directory is refused" true
    (match Cache.open_disk dir with
    | _ -> false
    | exception Cache.Incompatible _ -> true)

let test_concurrent_writers () =
  with_disk_store @@ fun store _dir ->
  let keys = List.init 24 (fun i -> base_key ~seed:(Int64.of_int i) ()) in
  Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
  (* every job writes its own key and one shared key: distinct writers
     must not clobber each other, same-key writers must both succeed *)
  let shared = base_key ~extra:"shared" () in
  ignore
    (Sched.Pool.run_all pool
       (List.mapi
          (fun i key ->
            Sched.Job.v ~id:(string_of_int i) (fun () ->
                Cache.put store key (Entry.exec_entry sample_exec);
                Cache.put store shared (Entry.exec_entry sample_exec)))
          keys));
  List.iteri
    (fun i key ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d readable" i)
        true
        (Option.is_some (Cache.find store key)))
    (shared :: keys);
  Alcotest.(check bool)
    "no torn temp files left behind" true
    (match Cache.root store with
    | None -> false
    | Some root ->
        Array.for_all
          (fun f -> not (Filename.check_suffix f ".tmp"))
          (Sys.readdir (Filename.concat root "objects")))

(* ------------------------------------------------------------------ *)
(* Campaigns: warm replay and resume *)

let campaign_n = 12
let campaign_config ?count () =
  Campaign.config ~seed:4200L ~count:(Option.value ~default:campaign_n count) ()

let test_campaign_warm_hits_everything () =
  with_disk_store @@ fun store _dir ->
  let cfg = campaign_config () in
  let cold = Campaign.run ~store cfg in
  let cs = Cache.stats store in
  Alcotest.(check int) "cold misses every key" campaign_n cs.Cache.misses;
  Alcotest.(check int) "cold writes every key" campaign_n cs.Cache.writes;
  Cache.reset_stats store;
  let warm = Campaign.run ~store cfg in
  let ws = Cache.stats store in
  Alcotest.(check int) "warm hits every key" campaign_n ws.Cache.hits;
  Alcotest.(check int) "warm misses nothing" 0 ws.Cache.misses;
  Alcotest.(check int) "warm writes nothing" 0 ws.Cache.writes;
  Alcotest.(check string) "byte-identical digest" cold.Campaign.digest
    warm.Campaign.digest;
  Alcotest.(check bool) "whole report identical" true (cold = warm)

let test_campaign_digest_stable_across_jobs () =
  let digest_with run =
    let store = Cache.in_memory () in
    (run store).Campaign.digest
  in
  let cfg = campaign_config () in
  let seq = digest_with (fun store -> Campaign.run ~store cfg) in
  let par =
    digest_with (fun store ->
        Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
        Campaign.run ~pool ~store cfg)
  in
  Alcotest.(check string) "jobs=8 digest equals sequential" seq par

let test_campaign_remaining () =
  with_disk_store @@ fun store _dir ->
  let half = campaign_config ~count:(campaign_n / 2) () in
  let full = campaign_config () in
  Alcotest.(check int) "everything remains cold" campaign_n
    (Campaign.remaining ~store full);
  ignore (Campaign.run ~store half);
  Alcotest.(check int)
    "half remains after a half run"
    (campaign_n - (campaign_n / 2))
    (Campaign.remaining ~store full);
  ignore (Campaign.run ~store full);
  Alcotest.(check int) "nothing remains warm" 0 (Campaign.remaining ~store full)

(* The resume property: killing a campaign after any prefix of the work
   and re-running over the same store yields the digest of an
   uninterrupted run.  A [count = k] run over a shared store is exactly
   the state a kill after k programs leaves behind (the disk backend's
   atomic rename guarantees no torn entries — exercised separately in
   CI with a real SIGKILL). *)
let test_campaign_resume_property () =
  let reference =
    (Campaign.run ~store:(Cache.in_memory ()) (campaign_config ())).Campaign.digest
  in
  let prop k =
    let store = Cache.in_memory () in
    if k > 0 then ignore (Campaign.run ~store (campaign_config ~count:k ()));
    let resumed = Campaign.run ~store (campaign_config ()) in
    String.equal resumed.Campaign.digest reference
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"resume digest equals uninterrupted"
       QCheck.(int_bound campaign_n)
       prop)

(* ------------------------------------------------------------------ *)
(* Workbench integration: stats are a function of the key, not of
   which store instance served them *)

let test_workbench_stats_store_independent () =
  let w = List.hd Apps.Spec.all in
  Harness.Workbench.force_programs [ w ];
  let s1 = Harness.Workbench.baseline ~store:(Cache.in_memory ()) w in
  let s2 = Harness.Workbench.baseline ~store:(Cache.in_memory ()) w in
  Alcotest.(check int64)
    "baseline cycles bit-identical across stores"
    (Int64.bits_of_float s1.Machine.Exec.cycles)
    (Int64.bits_of_float s2.Machine.Exec.cycles);
  Alcotest.(check string) "baseline output identical" s1.Machine.Exec.output
    s2.Machine.Exec.output;
  let h1, p1 =
    Harness.Workbench.smokestack_stats ~store:(Cache.in_memory ())
      Smokestack.Config.default w
  in
  let h2, p2 =
    Harness.Workbench.smokestack_stats ~store:(Cache.in_memory ())
      Smokestack.Config.default w
  in
  Alcotest.(check int64)
    "hardened cycles bit-identical across stores"
    (Int64.bits_of_float h1.Machine.Exec.cycles)
    (Int64.bits_of_float h2.Machine.Exec.cycles);
  Alcotest.(check int) "pbox bytes identical" p1 p2

let () =
  Alcotest.run "store"
    [
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "distinct per field" `Quick
            test_key_distinct_per_field;
          Alcotest.test_case "json round-trip" `Quick test_key_json_roundtrip;
        ] );
      ( "entry",
        [
          Alcotest.test_case "exec round-trip bit-exact" `Quick
            test_exec_codec_roundtrip;
          Alcotest.test_case "version/kind mismatch is a miss" `Quick
            test_exec_codec_version_mismatch_is_miss;
          Alcotest.test_case "verdicts round-trip" `Quick
            test_verdicts_codec_roundtrip;
          Alcotest.test_case "validate round-trip" `Quick
            test_validate_codec_roundtrip;
        ] );
      ( "disk",
        [
          Alcotest.test_case "round-trip and counters" `Quick
            test_disk_roundtrip_and_counters;
          Alcotest.test_case "survives reopen" `Quick test_disk_survives_reopen;
          Alcotest.test_case "corruption quarantined as miss" `Quick
            test_corrupt_entry_is_quarantined_miss;
          Alcotest.test_case "key-echo mismatch is miss" `Quick
            test_key_echo_mismatch_is_miss;
          Alcotest.test_case "manifest version mismatch refused" `Quick
            test_incompatible_manifest_version;
          Alcotest.test_case "foreign directory refused" `Quick
            test_foreign_directory_rejected;
          Alcotest.test_case "concurrent writers jobs=8" `Quick
            test_concurrent_writers;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "warm run hits everything" `Quick
            test_campaign_warm_hits_everything;
          Alcotest.test_case "digest stable across jobs" `Quick
            test_campaign_digest_stable_across_jobs;
          Alcotest.test_case "remaining counts cold keys" `Quick
            test_campaign_remaining;
          Alcotest.test_case "resume property" `Quick
            test_campaign_resume_property;
        ] );
      ( "workbench",
        [
          Alcotest.test_case "stats independent of store instance" `Quick
            test_workbench_stats_store_independent;
        ] );
    ]
