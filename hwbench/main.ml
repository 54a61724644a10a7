(* The Homework router benchmark.

     main.exe --workload stream|churn|household_ui
              --seed N --seconds S --trace 0|1

   Prints, as its last line, one JSON object: correct, attempted, failed
   and metrics — the end-to-end metrics with --trace 0, the per-layer
   ones with --trace 1. A line of details (sample counts, machine tag)
   goes to stderr. *)

module R = Hw_router.Router
module H = Harness
module D = Clients
module W = Workloads
module Vec = Acct.Vec

let workloads = [ "stream"; "churn"; "household_ui" ]

(* Simulated seconds measured per requested second: each workload runs a
   fixed amount of work for a seed, sized so that the workload's run takes
   about 60% of --seconds on a 2-core x86-64 VM (OCaml 5.1.1) and the
   path probe after it the other 40%. A fixed amount of work
   keeps the router's state at the end of a run, and so the latencies
   measured in it, independent of how fast the machine was. *)
let sim_rate = function "stream" -> 8. | "churn" -> 92. | _ -> 188.

(* Shares of --seconds after which the workload's measured run and the
   probe's are cut short: a third over their nominal 60% and 40%, so that
   a run on a busy host takes at most ~1.3 times --seconds, and runs
   less work. *)
let workload_cap = 0.8
let probe_cap = 0.55
let setup_repeats = 15

(* Seconds spent at most on set-ups after the run (see below). *)
let extra_setup_s = 2.

(* Federated queries on the small fleet per 5 s of run. *)
let fed_queries_per_5s = 2000

(* Bound on the traced run's unattributed wall time, as a share. *)
let residual_bound = 0.10

(* Bound on how much tracing may add to the router's busy time per
   simulated second; the traced and untraced halves of a traced run may
   differ by this plus [residual_bound]. *)
let overhead_bound = 0.05

let build ~workload ~seed ~traced =
  match workload with
  | "stream" -> W.setup_stream ~seed ~traced
  | "churn" -> W.setup_churn ~seed ~traced
  | "household_ui" -> W.setup_household ~seed ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Counters read by name off the routers' public registries             *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [
    "dp_rx_frames_total";
    "dp_flow_misses_total";
    "dp_buffer_evictions_total";
    "ctrl_handler_errors_total";
    "dns_cache_answers_total";
    "dns_query_forwarded_total";
    "dns_reverse_lookups_total";
    "dhcp_grants_total";
    "dhcp_denials_total";
    "wal_appends_total";
    "wal_flushed_bytes_total";
    "hwdb_plan_cache_hits_total";
    "hwdb_plan_cache_misses_total";
    "ctrl_datapath_leave_total";
  ]

let tables = [ "Flows"; "Links"; "Leases"; "Policies"; "Metrics"; "Traces" ]

let snapshot (run : W.run) =
  let homes = run.W.h.H.homes in
  let tbl = Hashtbl.create 32 in
  let add k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun (home : H.home) ->
      let r = home.H.router in
      let reg = R.metrics r in
      List.iter (fun n -> add n (H.counter_value reg n)) counter_names;
      add "packet_ins" (R.packet_ins r);
      add "blocked_flows" (R.blocked_flow_count r);
      List.iter
        (fun t ->
          match Hw_hwdb.Database.table (R.db r) t with
          | Some tb -> add ("inserts." ^ t) (Hw_hwdb.Table.total_inserted tb)
          | None -> ())
        tables)
    homes;
  List.iter
    (fun (home : H.home) ->
      add "reply_bytes" home.H.reply_bytes;
      add "publishes" home.H.publishes)
    homes;
  fun k -> Option.value (Hashtbl.find_opt tbl k) ~default:0

(* ------------------------------------------------------------------ *)
(* One measured phase                                                   *)
(* ------------------------------------------------------------------ *)

(* Statistics cover the measured run only; the drain and the oracles
   that follow it run on fresh counters. [co] harnesses (the small
   fleet) advance alongside; with [traced_st], every other simulated
   second runs traced on those stats. Returns the (untraced) stats and
   the latency samples. *)
let measure ?(co = []) ?traced_st (run : W.run) ~workload ~seconds =
  let h = run.W.h in
  let st = H.new_stats () and samples = H.new_samples () in
  h.H.st <- st;
  h.H.sm <- samples;
  let drops = H.channel_drops h in
  let sim_seconds = seconds *. sim_rate workload in
  let co = List.map (fun (ch, co_sim_s) -> H.co ch ~per_step:(co_sim_s /. sim_seconds)) co in
  H.arm_faults h;
  run.W.start ();
  H.run_measured ~co ?traced_st h ~sim_seconds ~wall_cap:(seconds *. workload_cap);
  h.H.st <- H.new_stats ();
  run.W.stop ();
  let dropped = H.channel_drops h - drops in
  if dropped > 0 then D.fail (Printf.sprintf "controller channel dropped %d times" dropped);
  (st, samples)

let busy_ns (q : H.quiet) = q.H.timer_ns +. q.H.entry_ns

(* Latency samples a percentile is taken over, and repeats each piece
   of the set-up is the median of, at least, when that many were taken. *)
let min_samples = 200
let setup_min = 5

(* ------------------------------------------------------------------ *)
(* Layer replays on the traced run's captured inputs                    *)
(* ------------------------------------------------------------------ *)

(* ns per call of [f] over [inputs]: one warm-up pass, then whole passes
   for at least 50 ms. Returns (ns, samples). *)
let replay inputs f =
  let n = Array.length inputs in
  if n = 0 then (0., 0)
  else begin
    Array.iter f inputs;
    let count = ref 0 in
    let t0 = Acct.now_ns () in
    while Acct.now_ns () - t0 < 50_000_000 do
      Array.iter f inputs;
      count := !count + n
    done;
    (float_of_int (Acct.now_ns () - t0) /. float_of_int !count, !count)
  end

let replays (run : W.run) st =
  let open Hw_packet in
  let open Hw_openflow in
  let frames = Array.of_seq (Queue.to_seq st.H.capture) in
  let misses = Array.of_seq (Queue.to_seq st.H.miss_capture) in
  let decoded xs =
    Array.of_list
      (List.filter_map
         (fun (port, fr) ->
           match Packet.decode fr with Ok p -> Some (port, fr, p) | Error _ -> None)
         (Array.to_list xs))
  in
  let router = (List.hd run.W.h.H.homes).H.router in
  let table = Hw_datapath.Datapath.flow_table (R.datapath router) in
  let fields =
    Array.map (fun (port, _, p) -> Ofp_match.fields_of_packet ~in_port:port p) (decoded frames)
  in
  let miss_msgs =
    Array.map
      (fun (port, fr, p) ->
        let pi =
          Ofp_message.Packet_in
            {
              Ofp_message.buffer_id = Some 7l;
              total_len = String.length fr;
              in_port = port;
              reason = Ofp_message.No_match;
              data = fr;
            }
        in
        let fm =
          Ofp_message.Flow_mod
            (Ofp_message.add_flow ~idle_timeout:10 ~buffer_id:7l
               (Ofp_match.exact_of_fields (Ofp_match.fields_of_packet ~in_port:port p))
               [ Ofp_action.output R.upstream_port ])
        in
        (pi, fm))
      (decoded misses)
  in
  let codec m = ignore (Ofp_message.decode (Ofp_message.encode ~xid:1l m)) in
  let db = R.db router in
  let stmts = Array.of_list run.W.statements in
  [
    ("hw_packet.decode_ns", replay frames (fun (_, fr) -> ignore (Packet.decode fr)));
    ("hw_datapath.lookup_ns", replay fields (fun f -> ignore (Hw_datapath.Flow_table.lookup table f)));
    ("hw_openflow.packet_in_codec_ns", replay miss_msgs (fun (pi, _) -> codec pi));
    ("hw_openflow.flow_mod_codec_ns", replay miss_msgs (fun (_, fm) -> codec fm));
    ("hw_hwdb.query_ns", replay stmts (fun q -> ignore (Hw_hwdb.Database.query db q)));
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit_)
         ms)
  ^ "}"

let details ~workload ~seed ~counts extra =
  Printf.eprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"machine\": {\"cores\": %d, \"ocaml\": \"%s\", \
     \"word_size\": %d}, \"samples\": {%s}%s, \"notes\": [%s]}\n\
     %!"
    workload seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n) counts))
    extra
    (String.concat ", " (List.map (Printf.sprintf "%S") (List.rev D.ledger.D.notes)))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured wall seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ( "--stream-flows",
        Arg.Set_int W.stream_flows,
        " N: flows the stream workload installs (default 512; self-test)" );
      ( "--inject-tx-drop",
        Arg.Set_float H.tx_drop,
        " P: arm every router's transmit fault plane to drop frames with probability P (self-test)"
      );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and traced = !trace = 1 in
  if not (List.mem workload workloads) then begin
    prerr_endline ("unknown workload: " ^ workload);
    exit 2
  end;
  let seconds = float_of_int (max 1 !seconds) in
  Acct.load_fastest_probe ();
  Acct.calibrate_probe 60_000;
  (* set-up, repeated and timed in pieces; the last build is measured *)
  let setups = ref [] in
  let time_setup () =
    Gc.full_major ();
    Acct.Pieces.start ();
    let b = build ~workload ~seed ~traced:false in
    setups := Acct.Pieces.stop () :: !setups;
    b
  in
  let built = ref None in
  for _ = 1 to setup_repeats do
    built := None;
    built := Some (time_setup ())
  done;
  let run = Option.get !built in
  Gc.compact ();
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6 in
  D.ledger.D.attempted <- 0;
  D.ledger.D.failed <- 0;
  D.ledger.D.notes <- [];
  (* the small fleet, advanced alongside the workload's run *)
  let fleet = Fleet.create ~seed ~traced:false in
  let fed_queries = int_of_float (seconds /. 5. *. float_of_int fed_queries_per_5s) in
  let fleet_co = (fleet.Fleet.h, float_of_int fed_queries /. 1000. *. Fleet.sim_s_per_1000_queries) in
  if not traced then begin
    (* the small fleet alongside the workload, then the probe household:
       the paths this workload does not drive itself *)
    Fleet.start fleet ~queries:fed_queries;
    let s, main_samples = measure ~co:[ fleet_co ] run ~workload ~seconds in
    Fleet.finish fleet;
    (* the probe starts from a compacted heap, without the workload's
       state: otherwise its collections, paid inside the probe's calls,
       grow with whatever the workload left behind *)
    built := None;
    D.forget_pending ();
    Gc.compact ();
    let probe = W.setup_probe ~seed ~traced:false ~scale:(seconds /. 3.) in
    let probe_t0 = Acct.now_ns () in
    W.start_probe probe;
    H.run_measured probe.W.ph ~sim_seconds:(W.probe_sim_s probe) ~wall_cap:(seconds *. probe_cap);
    let probe_st = probe.W.ph.H.st in
    let probe_wall_s = float_of_int (Acct.now_ns () - probe_t0) /. 1e9 in
    W.finish_probe probe;
    let headline = function
      | `First | `Dns -> workload = "churn"
      | `Join | `Query | `Policy -> workload = "household_ui"
    in
    let slacks = ref [] in
    let quiet name v =
      let v, slack = Acct.quiet_samples ~min:min_samples v in
      slacks := (name, slack) :: !slacks;
      v
    in
    let pick m name sel = quiet name (sel (if headline m then main_samples else probe.W.ph.H.sm)) in
    let us v p = Vec.percentile v p /. 1e3 in
    let ms v p = Vec.percentile v p /. 1e6 in
    let fp = pick `First "first_packet" (fun x -> x.H.first_packet) in
    let dns = pick `Dns "dns" (fun x -> x.H.dns) in
    let join = pick `Join "join" (fun x -> x.H.join) in
    let query = pick `Query "query" (fun x -> x.H.query) in
    let policy = pick `Policy "policy" (fun x -> x.H.policy) in
    let fed = quiet "fed_query" fleet.Fleet.h.H.sm.H.fed_query in
    let q = H.quiet_totals s and probe_q = H.quiet_totals probe_st in
    slacks := ("stretches", q.H.slack) :: !slacks;
    (* a busy host can keep some piece of the set-ups above from running
       quiet often enough: set up again, after the run, until every piece
       has run quiet [setup_min] times, for at most [extra_setup_s] *)
    let pieces = Vec.length (List.hd !setups) in
    let same_pieces () = List.for_all (fun v -> Vec.length v = pieces) !setups in
    let until = Acct.now_ns () + int_of_float (extra_setup_s *. 1e9) in
    let attempted = D.ledger.D.attempted and failed = D.ledger.D.failed in
    let notes = D.ledger.D.notes in
    while same_pieces () && Acct.Pieces.fewest_quiet !setups < setup_min && Acct.now_ns () < until do
      ignore (time_setup ())
    done;
    D.ledger.D.attempted <- attempted;
    D.ledger.D.failed <- failed;
    D.ledger.D.notes <- notes;
    (* the pieces line up only if every set-up ran the same quanta *)
    if not (same_pieces ()) then D.fail "set-ups of one seed ran different numbers of quanta";
    let setup_s, setup_slack =
      Acct.Pieces.estimate ~min:setup_min (List.filter (fun v -> Vec.length v = pieces) !setups)
    in
    slacks := ("setup", setup_slack) :: !slacks;
    let metrics =
      [
        ("setup_s", "s", setup_s);
        ("heap_mb", "MB", heap_mb);
        ("frames_per_s", "1/s", q.H.frames /. (busy_ns q /. 1e9));
        ("router_us_per_sim_s", "us", busy_ns q /. 1e3);
        ("first_packet_us_p50", "us", us fp 0.5);
        ("first_packet_us_p90", "us", us fp 0.9);
        ("dns_us_p50", "us", us dns 0.5);
        ("dns_us_p90", "us", us dns 0.9);
        ("join_us_p50", "us", us join 0.5);
        ("join_us_p90", "us", us join 0.9);
        ("query_us_p50", "us", us query 0.5);
        ("query_us_p95", "us", us query 0.95);
        ("policy_us_p50", "us", us policy 0.5);
        ("fed_query_ms_p50", "ms", ms fed 0.5);
        ("fed_query_ms_p90", "ms", ms fed 0.9);
      ]
    in
    List.iter
      (fun (name, _, v) -> if not (v > 0.) then D.fail (name ^ " has no samples"))
      metrics;
    details ~workload ~seed
      ~counts:
        [
          ("frames", s.H.frames);
          ("first_packet", Vec.length fp);
          ("dns", Vec.length dns);
          ("join", Vec.length join);
          ("query", Vec.length query);
          ("policy", Vec.length policy);
          ("fed_query", Vec.length fed);
          ("setups", List.length !setups);
          ("setup_pieces", pieces);
          ("flow_entries_peak", s.H.flow_peak);
          ("probe_flow_entries_peak", probe_st.H.flow_peak);
        ]
      (Printf.sprintf
         ", \"sim_seconds\": %.3f, \"wall_seconds\": %.3f, \"probe_wall_seconds\": %.3f, \
          \"quiet_share\": %.3f, \"probe_quiet_share\": %.3f, \"fastest_probe_ns\": %d, \
          \"slacks\": {%s}"
         (float_of_int s.H.quanta *. H.quantum)
         (float_of_int s.H.wall_ns /. 1e9)
         probe_wall_s q.H.share probe_q.H.share !Acct.fastest_probe
         (String.concat ", "
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\": %s" k
                   (if Float.is_finite v then Printf.sprintf "%.2f" v else "null"))
               (List.rev !slacks))));
    Acct.save_fastest_probe ();
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
      (D.ledger.D.failed = 0) (max 1 D.ledger.D.attempted) D.ledger.D.failed (metrics_json metrics)
  end
  else begin
    (* untraced and traced simulated seconds alternate in one run, the
       fleet alongside both: the difference is the tracing overhead *)
    let bookkeeping = H.bookkeeping_ns () in
    let before = snapshot run in
    let fanout_errors () =
      H.counter_value (Hw_fleet.Manager.metrics fleet.Fleet.manager) "fleet_fanout_errors_total"
    in
    let fanout0 = fanout_errors () in
    let s = H.new_stats () in
    Fleet.start fleet ~queries:fed_queries;
    let plain, _ = measure ~co:[ fleet_co ] ~traced_st:s run ~workload ~seconds in
    Fleet.finish fleet;
    let after = snapshot run in
    let d k = float_of_int (after k - before k) in
    let ratio a c = if a +. c = 0. then 0. else a /. (a +. c) in
    let cls c = s.H.cls.(c) in
    let wall = float_of_int s.H.wall_ns in
    let busy = float_of_int (H.busy_ns s) in
    let sim = float_of_int s.H.sim_ns and loop = float_of_int s.H.loop_ns in
    let co = float_of_int s.H.co_ns in
    (* what neither a timed region nor the loop's own measured
       bookkeeping accounts for *)
    let residual = (wall -. busy -. sim -. co -. (float_of_int s.H.quanta *. bookkeeping)) /. wall in
    let q_plain = H.quiet_totals plain and q = H.quiet_totals s in
    let plain_busy = busy_ns q_plain /. 1e3 in
    let timer_us = q.H.timer_ns /. 1e3 in
    let entry_us = q.H.entry_ns /. 1e3 in
    let overhead = (timer_us +. entry_us -. plain_busy) /. plain_busy in
    let rp = replays run s in
    let metrics =
      [
        ("hw_datapath.hit_ns.small", "ns", Acct.per_item s.H.hit_small);
        ("hw_datapath.hit_ns.large", "ns", Acct.per_item s.H.hit_large);
        ("hw_router.upstream_rx_ns", "ns", Acct.per_item s.H.upstream_rx);
        ("hw_router.new_flow_ns", "ns", Acct.per_call s.H.new_flow);
        ("hw_router.arp_ns", "ns", Acct.per_call (cls H.c_rx_arp));
        ("hw_dns.query_ns", "ns", Acct.per_call (cls H.c_rx_dns));
        ("hw_dns.upstream_ns", "ns", Acct.per_call (cls H.c_up_dns));
        ("hw_dhcp.exchange_ns", "ns", Acct.per_call (cls H.c_rx_dhcp));
        ("hw_hwdb.rpc_ns", "ns", Acct.per_call (cls H.c_rpc));
        ("hw_control_api.http_ns", "ns", Acct.per_call (cls H.c_http));
        ("hw_policy.usb_ns", "ns", Acct.per_call (cls H.c_usb));
        ("hw_router.tick_ns_p50", "ns", Vec.percentile s.H.ticks 0.5);
        ("hw_router.tick_ns_p99", "ns", Vec.percentile s.H.ticks 0.99);
        ("hw_router.timer_us_per_sim_s", "us", timer_us);
        ("hw_router.entry_us_per_sim_s", "us", entry_us);
        ( "hw_fleet.query_call_ns",
          "ns",
          Acct.per_call fleet.Fleet.h.H.st.H.cls.(H.c_fleet_query) );
        ("hw_obs.scrape_ns", "ns", Fleet.scrape_ns fleet);
        ( "hw_datapath.miss_share",
          "ratio",
          let rx = d "dp_rx_frames_total" in
          if rx = 0. then 0. else d "dp_flow_misses_total" /. rx );
        ("hw_datapath.flow_entries_peak", "count", float_of_int s.H.flow_peak);
        ("hw_datapath.buffer_evictions", "count", d "dp_buffer_evictions_total");
        ("hw_controller.packet_ins", "count", d "packet_ins");
        ("hw_controller.handler_errors", "count", d "ctrl_handler_errors_total");
        ("hw_controller.channel_drops", "count", d "ctrl_datapath_leave_total");
        ("hw_router.blocked_flows", "count", d "blocked_flows");
        ( "hw_dns.cache_hit_ratio",
          "ratio",
          ratio (d "dns_cache_answers_total") (d "dns_query_forwarded_total") );
        ("hw_dns.reverse_lookups", "count", d "dns_reverse_lookups_total");
        ("hw_dhcp.grants", "count", d "dhcp_grants_total");
        ("hw_dhcp.denials", "count", d "dhcp_denials_total");
        ("hw_wal.appends", "count", d "wal_appends_total");
        ("hw_wal.flushed_bytes", "bytes", d "wal_flushed_bytes_total");
        ( "hw_hwdb.plan_cache_hit_ratio",
          "ratio",
          ratio (d "hwdb_plan_cache_hits_total") (d "hwdb_plan_cache_misses_total") );
        ("hw_hwdb.reply_bytes", "bytes", d "reply_bytes");
        ("hw_hwdb.publishes", "count", d "publishes");
      ]
      @ List.map (fun t -> ("hw_hwdb.inserts." ^ t, "count", d ("inserts." ^ t))) tables
      @ [ ("hw_fleet.fanout_errors", "count", float_of_int (fanout_errors () - fanout0)) ]
      @ List.map (fun (name, (ns, _)) -> (name, "ns", ns)) rp
      @ [
          ("hw_sim.share", "ratio", sim /. wall);
          ("loop_share", "ratio", loop /. wall);
          ("fleet_share", "ratio", co /. wall);
          ("residual_share", "ratio", residual);
          ("trace_overhead_share", "ratio", overhead);
        ]
    in
    if not (Float.abs residual <= residual_bound) then
      D.fail (Printf.sprintf "attribution residual %.3f exceeds %.2f" residual residual_bound);
    (* the traced breakdown adds up to the untraced router busy time *)
    if not (Float.abs overhead <= overhead_bound +. residual_bound) then
      D.fail
        (Printf.sprintf "traced timer + entry time differs from the untraced busy time by %.3f"
           overhead);
    details ~workload ~seed
      ~counts:
        ([
           ("traced_frames", s.H.frames);
           ("ticks", Vec.length s.H.ticks);
           ("new_flow", s.H.new_flow.Acct.calls);
           ("rpc", (cls H.c_rpc).Acct.calls);
         ]
        @ List.map (fun (name, (_, n)) -> (name, n)) rp)
      (Printf.sprintf
         ", \"untraced_router_us_per_sim_s\": %.3f, \"traced_router_us_per_sim_s\": %.3f, \
          \"bookkeeping_ns_per_quantum\": %.1f, \"residual_bound\": %.2f, \"overhead_bound\": %.2f, \
          \"quiet_share\": %.3f"
         plain_busy (timer_us +. entry_us) bookkeeping residual_bound overhead_bound q.H.share);
    Acct.save_fastest_probe ();
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
      (D.ledger.D.failed = 0) (max 1 D.ledger.D.attempted) D.ledger.D.failed (metrics_json metrics)
  end
