let run_adaptive ?backend ?arm ?fuel (applied : Defenses.Defense.applied) ~seed
    ~input =
  let backend =
    match backend with Some b -> b | None -> Machine.Backend.default ()
  in
  let entropy = Crypto.Entropy.create ~seed in
  let st = applied.fresh_state entropy in
  Option.iter (fun f -> f st) arm;
  Machine.Exec.set_input st input;
  backend.Machine.Backend.run ?fuel st

let chunk_reader chunks =
  let remaining = ref chunks in
  fun _st max ->
    match !remaining with
    | [] -> ""
    | chunk :: rest ->
        remaining := rest;
        if String.length chunk > max then String.sub chunk 0 max else chunk

let run_chunks ?backend ?arm ?fuel applied ~seed ~chunks =
  run_adaptive ?backend ?arm ?fuel applied ~seed ~input:(chunk_reader chunks)
