(* Input generation and the untimed operations of the three workloads.

   Every input is a pure function of the workload seed: instance [k]
   of a run draws its trace or scenario seed from [mix seed k].  The
   program sees only the generated instances.  The operations call the
   program through its public entry points alone ([Planner.run] with
   the paper's context, [Pareto.sweep]), so internal representations
   and knobs can change underneath without touching this file. *)

open Tmedb
open Tmedb_prelude

(* SplitMix64 finaliser: well-separated per-instance seeds even for
   adjacent workload seeds. *)
let mix seed k =
  let open Int64 in
  let z = add (of_int seed) (mul 0x9E3779B97F4A7C15L (of_int (k + 1))) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFL)

let planner name =
  match Registry.find name with Ok p -> p | Error e -> failwith ("perfbench: " ^ e)

(* Paper defaults of the figure sweeps (Experiment.default_config):
   deadline 2000 s, per-node DTS cap 1500, Steiner level 2. *)
let deadline = Experiment.default_config.Experiment.deadline

let paper_ctx () =
  Planner.Ctx.make ~steiner_level:Experiment.default_config.Experiment.steiner_level
    ~cap_per_node:Experiment.default_config.Experiment.dts_cap ()

(* Whether the broadcast from [source] is completable by the deadline:
   every node journey-reachable over the contacts whose single-hop cost
   under the design channel fits the cost set (the static threshold, or
   the Rayleigh ε-cost the FR backbone plans with). *)
let completable ~channel trace ~source =
  let phy = Tmedb_channel.Phy.default in
  let hop_cost dist =
    match channel with
    | `Static -> Tmedb_channel.Phy.min_cost phy ~dist
    | `Rayleigh -> Tmedb_channel.Phy.fading_reference_cost phy ~dist
  in
  let usable =
    List.filter
      (fun c -> hop_cost c.Tmedb_trace.Contact.dist <= phy.Tmedb_channel.Phy.w_max)
      (Tmedb_trace.Trace.contacts trace)
  in
  let span = Tmedb_trace.Trace.span trace in
  let usable = Tmedb_trace.Trace.make ~n:(Tmedb_trace.Trace.n trace) ~span usable in
  Tmedb_tvg.Reachability.is_broadcastable (Tmedb_trace.Trace.to_tvg usable) ~tau:0. ~src:source
    ~t0:span.Interval.lo ~deadline

(* Stratified input sampling.  Per-instance cost varies a lot with the
   contact density a seed happens to draw, and a run holds only a few
   dozen operations, so plain random instances would make the measured
   figures swing from seed to seed.  Instead each class draws
   [oversample] times as many candidates as it needs, sorts them by a
   cheap density proxy, and takes the candidate nearest the middle of
   each of [m] equal strata that [accept] turns into an instance: every
   seed covers the same spread of difficulty with different inputs.
   Strata are visited in a fixed shuffled order, so any prefix of a pass
   mixes easy and hard instances. *)
let stratified ?(oversample = 4) ~seed ~cls ~m ~gen ~proxy ~accept () =
  let g = oversample * m in
  let cands =
    Array.init g (fun i ->
        let c = gen (mix seed ((100_000 * cls) + i)) in
        (proxy c, i, c))
  in
  Array.sort (fun (p1, i1, _) (p2, i2, _) -> compare (p1, i1) (p2, i2)) cands;
  let used = Array.make g false in
  let pick j =
    let centre = (((2 * j) + 1) * g) / (2 * m) in
    (* Nearest unused acceptable candidate, alternating outwards. *)
    let rec search d =
      if d > g then failwith "perfbench: no acceptable input candidate"
      else begin
        let try_at i =
          if i >= 0 && i < g && not used.(i) then begin
            let _, _, c = cands.(i) in
            match accept c with
            | Some x ->
                used.(i) <- true;
                Some x
            | None -> None
          end
          else None
        in
        match try_at (centre + d) with
        | Some x -> x
        | None -> ( match if d > 0 then try_at (centre - d) else None with Some x -> x | None -> search (d + 1))
      end
    in
    search 0
  in
  let order = Array.init m Fun.id in
  Rng.shuffle (Rng.create 20151) order;
  Array.map pick order

(* Contacts that start before the deadline: the part of a trace a solve
   actually walks. *)
let early_contacts trace =
  List.length
    (List.filter
       (fun c -> c.Tmedb_trace.Contact.iv.Interval.lo < deadline)
       (Tmedb_trace.Trace.contacts trace))

(* [m] Haggle-like synthetic instances of [n] nodes, each with the first
   completable source in [Experiment.choose_sources] order. *)
let haggle_instances ?oversample ~seed ~cls ~m ~n ~channel () =
  let config trace_seed = { Experiment.default_config with Experiment.seed = trace_seed; n; sources = n } in
  stratified ?oversample ~seed ~cls ~m
    ~gen:(fun trace_seed -> (trace_seed, Experiment.make_trace (config trace_seed) ~n))
    ~proxy:(fun (_, trace) -> early_contacts trace)
    ~accept:(fun (trace_seed, trace) ->
      List.find_opt
        (fun source -> completable ~channel trace ~source)
        (Experiment.choose_sources (config trace_seed) ~trace ~deadline)
      |> Option.map (fun source ->
             Experiment.make_problem (config trace_seed) ~trace
               ~channel:(channel :> Tmedb_tveg.Tveg.channel) ~source ~deadline))
    ()

(* eedcb-sweep: one-shot EEDCB solves, N cycling through 15/16/17.
   Solve times of neighbouring sizes overlap, so the op times form one
   continuous distribution and the median and the tail each fall among
   many ops.  Widely spaced sizes (say 12/16/20) form separate per-size
   clusters that leave each of those statistics to a dozen ops of one
   size, and they swing by a quarter between runs. *)
module Eedcb_sweep = struct
  let sizes = [| 15; 16; 17 |]
  let count = 66

  type inst = { n : int; problem : Problem.t }

  (* Instance k has size sizes.(k mod 3), so sizes alternate in a pass. *)
  let instances ~seed =
    let classes = Array.length sizes in
    let per_class =
      Array.mapi
        (fun cls n ->
          haggle_instances ~seed ~cls ~m:(count / classes) ~n ~channel:`Static ())
        sizes
    in
    Array.init count (fun k ->
        { n = sizes.(k mod classes); problem = per_class.(k mod classes).(k / classes) })

  let run planner inst = Planner.run ~ctx:(paper_ctx ()) planner inst.problem
end

(* fading-greed: an FR-GREED plan on a Rayleigh design channel plus a
   Monte-Carlo Rayleigh replay of the schedule (the fig5b/fig6b point). *)
module Fading_greed = struct
  let n = 20
  let trials = 300
  let count = 100

  type inst = { problem : Problem.t; sim_seed : int }

  let instances ~seed =
    Array.mapi
      (fun k problem -> { problem; sim_seed = mix seed (-1 - k) })
      (* A hundred instances already average well; fewer candidates keep
         set-up short. *)
      (haggle_instances ~oversample:2 ~seed ~cls:0 ~m:count ~n ~channel:`Rayleigh ())

  let simulate inst schedule =
    Simulate.run ~trials ~rng:(Rng.create inst.sim_seed) ~eval_channel:`Rayleigh inst.problem
      schedule

  let run planner inst =
    let outcome = Planner.run ~ctx:(paper_ctx ()) planner inst.problem in
    (outcome, simulate inst outcome.Planner.Outcome.schedule)
end

(* pareto-scale: an uncapped SPT deadline sweep on a clustered Scale
   scenario.  The end-to-end run sweeps on one domain: on a 2-vCPU host
   with hypervisor steal, a 2-domain pool's stop-the-world minor
   collections made run-to-run op times and the peak heap swing by up to
   2x.  The traced run fans the points out over [traced_domains] and
   reports the pool metrics. *)
module Pareto_scale = struct
  let npoints = 10
  let count = 45
  let traced_domains = 2

  type inst = { n : int; problem : Problem.t; grid : float list }

  (* The grid recipe of `bench pareto`: non-round offsets below the
     horizon, so no grid deadline coincides with a contact arrival. *)
  let grid horizon =
    let step = horizon *. 0.0437 in
    List.init npoints (fun k -> horizon -. (float_of_int (npoints - 1 - k) *. step))

  (* Neighbouring sizes, as for eedcb-sweep: a run holds about 45 sweeps
     of 0.5-1.3 s in one continuous range.  Sizes 20-24 take 0.9-2.4 s a
     sweep, too few and too spread out for a steady median in one run. *)
  let sizes = [| 18; 19; 20 |]

  let scenario n scenario_seed =
    let params = { Tmedb_tveg.Scale.default_params with Tmedb_tveg.Scale.seed = scenario_seed } in
    let graph = Tmedb_tveg.Scale.scenario ~params ~n () in
    Problem.make ~graph ~phy:Tmedb_channel.Phy.default ~channel:`Static ~source:0
      ~deadline:(Tmedb_tveg.Scale.deadline ~params ()) ()

  let contacts (problem : Problem.t) =
    let g = problem.Problem.graph in
    let total = ref 0 in
    for i = 0 to Tmedb_tveg.Tveg.n g - 1 do
      for j = i + 1 to Tmedb_tveg.Tveg.n g - 1 do
        total := !total + List.length (Tmedb_tveg.Tveg.links g i j)
      done
    done;
    !total

  (* Instance k has size sizes.(k mod 3); the hub (node 0) is the source. *)
  let instances ~seed =
    let classes = Array.length sizes in
    let per_class =
      Array.mapi
        (fun cls n ->
          stratified ~seed ~cls ~m:(count / classes) ~gen:(scenario n) ~proxy:contacts
            ~accept:(fun p -> if Problem.is_reachable p then Some p else None)
            ())
        sizes
    in
    Array.init count (fun k ->
        let problem = per_class.(k mod classes).(k / classes) in
        { n = sizes.(k mod classes); problem; grid = grid problem.Problem.deadline })

  let run ?pool planner inst = Pareto.sweep ?pool ~planner ~deadlines:inst.grid inst.problem
end
