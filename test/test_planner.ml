(* Tests for the planner layer: registry invariants (the name-keyed
   table is the single source of truth for every algorithm list in the
   tree) and refactor parity — the registry-driven figure/compare
   pipelines must reproduce, byte for byte, the digests captured on
   the pre-refactor tree, at every worker count. *)

open Tmedb
open Tmedb_prelude

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let names planners = List.map Planner.name planners

(* ------------------------------------------------------------------ *)
(* Registry invariants *)

let test_registry_names_unique () =
  let sorted = List.sort_uniq String.compare (names Registry.all) in
  check_int "no duplicate names" (List.length Registry.all) (List.length sorted)

let test_registry_find_roundtrip () =
  List.iter
    (fun p ->
      match Registry.find (Planner.name p) with
      | Ok p' -> check_string "find(name p) = p" (Planner.name p) (Planner.name p')
      | Error e -> Alcotest.fail e)
    Registry.all

let test_registry_find_is_lenient () =
  List.iter
    (fun (query, expected) ->
      match Registry.find query with
      | Ok p -> check_string query expected (Planner.name p)
      | Error e -> Alcotest.fail e)
    [
      ("eedcb", "EEDCB");
      ("fr-eedcb", "FR-EEDCB");
      ("FR_EEDCB", "FR-EEDCB");
      ("fr_greed", "FR-GREED");
      ("Rand", "RAND");
      ("bip", "BIP");
    ];
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (match Registry.find "nonsense" with
  | Error msg ->
      (* The error names the known planners, so a CLI typo is self-correcting. *)
      check_bool "error lists known names" true
        (List.for_all (fun n -> contains msg n) (names Registry.all))
  | Ok _ -> Alcotest.fail "expected an error for an unknown name")

let test_registry_channel_partition () =
  check_int "paper planners" 6 (List.length Registry.paper);
  Alcotest.(check (list string))
    "static trio" [ "EEDCB"; "GREED"; "RAND" ]
    (names (Registry.with_channel `Static));
  Alcotest.(check (list string))
    "fading trio"
    [ "FR-EEDCB"; "FR-GREED"; "FR-RAND" ]
    (names (Registry.with_channel `Fading));
  (* Extras (BIP) ride in [all] but never perturb the figure lists. *)
  check_bool "BIP registered" true (List.mem "BIP" (names Registry.all));
  check_bool "BIP not in the paper list" false (List.mem "BIP" (names Registry.paper));
  List.iter
    (fun p ->
      let expected = p.Planner.info.Planner.channel = `Fading in
      check_bool (Planner.name p) expected (Planner.is_fading p))
    Registry.all

let test_experiment_mirrors_registry () =
  (* Experiment's algorithm surface is the registry, not a private copy. *)
  Alcotest.(check (list string))
    "all_algorithms = Registry.paper" (names Registry.paper)
    (List.map Experiment.algorithm_name Experiment.all_algorithms);
  match Experiment.algorithm_of_string "BIP" with
  | Ok p -> check_string "extras resolve via Experiment too" "BIP" (Experiment.algorithm_name p)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Refactor parity: the digests below were captured on the
   pre-refactor tree (variant-dispatch Experiment.run_alg) with this
   exact recipe, at jobs = 1, 2 and 4.  The registry-backed pipeline
   must reproduce them byte for byte. *)

let fig6_golden = "9272b1e625a36a40bf35c0bcf64c2e0a"
let compare_golden = "a5e2396c152a6d3e0db84fef3748e36b"

let tiny =
  {
    Experiment.default_config with
    Experiment.n = 10;
    horizon = 6000.;
    deadline = 1500.;
    sources = 1;
    mc_trials = 60;
  }

let f17 = Printf.sprintf "%.17g"

let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Pool.create ~num_domains:jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))
  end

let fig6_digest ?(config = tiny) ~jobs () =
  with_pool jobs @@ fun pool ->
  let energy, delivery = Experiment.fig6 ~config ?pool ~ns:[ 8; 10 ] () in
  let fingerprint series =
    List.concat_map
      (fun s ->
        s.Experiment.label
        :: List.concat_map (fun (x, y) -> [ f17 x; f17 y ]) s.Experiment.points)
      series
  in
  Digest.to_hex (Digest.string (String.concat "\n" (fingerprint energy @ fingerprint delivery)))

let compare_digest ~jobs =
  with_pool jobs @@ fun pool ->
  let trace = Experiment.make_trace tiny ~n:tiny.Experiment.n in
  let deadline = tiny.Experiment.deadline in
  let source = List.hd (Experiment.choose_sources tiny ~trace ~deadline) in
  let rows =
    List.map
      (fun algorithm ->
        let rng = Rng.create tiny.Experiment.seed in
        let result = Experiment.run_alg tiny ~trace ~source ~deadline ~rng algorithm in
        let eval = Experiment.make_problem tiny ~trace ~channel:`Rayleigh ~source ~deadline in
        let sim =
          Simulate.run ~trials:60 ?pool ~rng ~eval_channel:`Rayleigh eval
            result.Experiment.schedule
        in
        String.concat ","
          [
            Experiment.algorithm_name algorithm;
            f17 result.Experiment.energy;
            string_of_int (Schedule.num_transmissions result.Experiment.schedule);
            f17 sim.Simulate.delivery_ratio;
            string_of_bool result.Experiment.feasible;
          ])
      Experiment.all_algorithms
  in
  Digest.to_hex (Digest.string (String.concat "\n" rows))

let test_fig6_parity () =
  List.iter
    (fun jobs ->
      check_string (Printf.sprintf "fig6 digest jobs=%d" jobs) fig6_golden (fig6_digest ~jobs ()))
    [ 1; 2; 4 ]

let test_compare_parity () =
  List.iter
    (fun jobs ->
      check_string
        (Printf.sprintf "compare digest jobs=%d" jobs)
        compare_golden (compare_digest ~jobs))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Outcome plumbing: artifacts survive the registry round-trip. *)

let test_outcome_artifacts () =
  let trace = Experiment.make_trace tiny ~n:tiny.Experiment.n in
  let problem = Experiment.make_problem tiny ~trace ~channel:`Static ~source:0 ~deadline:1500. in
  let eedcb =
    match Registry.find "EEDCB" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let outcome = Planner.run eedcb problem in
  check_bool "EEDCB exposes a Steiner tree cost" true
    (Option.is_some (Planner.Outcome.tree_cost outcome));
  let fading = Experiment.make_problem tiny ~trace ~channel:`Rayleigh ~source:0 ~deadline:1500. in
  let fr =
    match Registry.find "FR-EEDCB" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let outcome = Planner.run fr fading in
  check_bool "FR exposes its backbone" true (Option.is_some (Planner.Outcome.backbone outcome));
  check_bool "FR exposes its allocation" true
    (Option.is_some (Planner.Outcome.allocation outcome))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "planner"
    [
      ( "registry",
        [
          tc "names unique" test_registry_names_unique;
          tc "find roundtrip" test_registry_find_roundtrip;
          tc "find lenient" test_registry_find_is_lenient;
          tc "channel partition" test_registry_channel_partition;
          tc "experiment mirrors registry" test_experiment_mirrors_registry;
        ] );
      ( "parity",
        [
          slow "fig6 digests pre-refactor golden" test_fig6_parity;
          slow "compare digests pre-refactor golden" test_compare_parity;
        ] );
      ("outcome", [ slow "artifacts round-trip" test_outcome_artifacts ]);
    ]
