(** The fleet observability plane: one observer attached to a
    {!Hw_fleet.Manager} that turns the fleet's raw signals into three
    operator surfaces.

    {b Scraping.} Every [scrape_period] the observer fans one federated
    metrics query out over the manager's sessions (the ordinary
    {!Hw_fleet.Manager.query} path, so it is traced, bounded by
    [max_inflight] and tolerant of partial failure) and folds the rows
    of tracked metrics into per-router {!Series} — bounded, downsampled
    (raw -> 10 s -> 1 min) rings, capped at [max_series_per_router]
    series per router.

    {b Tables.} The observer owns a manager-side hwdb with four tables:
    [Metrics] (the manager's own registry, rendered by the first read
    after each tick),
    [Traces] (spans of the manager's flight-recorded traces — including
    the cross-node [fleet.query] trees — exported incrementally),
    [FleetMetrics] (per-router last values plus [__fleet__] sum/max
    aggregates, one batch per scrape) and [FleetHealth] (one row per
    health state transition, trace-tagged with the scrape that caused
    it). Standing [SUBSCRIBE] queries against these tables are the
    alerting path: {!db} exposes the database for
    {!Hw_hwdb.Database.subscribe} / an {!Hw_hwdb.Rpc.Server}.

    {b Health.} A per-router {!Health} machine driven by the manager's
    session events (registration, renewal, eviction) and by scrape
    outcomes; transitions are counted in the
    [fleet_health_transitions_total{state=...}] labeled family.

    {b HTTP.} {!routes} serves [GET /metrics] (Prometheus text, fleet
    series labeled with [router="..."]), [GET /traces] +
    [GET /traces/:id] (Chrome/Perfetto-loadable JSON of a cross-node
    trace) and [GET /fleet/health]. *)

module Manager := Hw_fleet.Manager

type t

val create :
  ?scrape_period:float ->
  ?tick_period:float ->
  ?scrape_statement:string ->
  ?track:(string * string) list ->
  ?error_counters:string list ->
  ?max_series_per_router:int ->
  ?raw_capacity:int ->
  ?s10_capacity:int ->
  ?s60_capacity:int ->
  ?fleet_metrics_capacity:int ->
  ?fleet_health_capacity:int ->
  ?degraded_after:float ->
  ?lost_after_failures:int ->
  ?recover_after:int ->
  loop:Hw_sim.Event_loop.t ->
  manager:Manager.t ->
  unit ->
  t
(** Attaches to [manager]'s registry, tracer and session-event hook
    (the observer installs itself with
    {!Hw_fleet.Manager.on_session_event} — it owns that hook).

    [scrape_period] (default 10 s) paces the federated metrics scrape;
    [tick_period] (default 1 s) paces the hwdb tick (subscription
    delivery) and the health silence sweep. [scrape_statement]
    (default ["SELECT name, stat, value FROM Metrics [NOW]"]) must
    select at least [name], [stat] and [value] columns from each
    router. [track] is the (metric, stat) shortlist folded into series
    (default: a handful of hwdb/RPC counters plus
    [hwdb_query_seconds]'s [p99]); [error_counters] (default: the hwdb
    insert/query error counters and the RPC drop counter) are the
    counters whose advance degrades a router's health.
    [max_series_per_router] (default 16) caps series per router —
    overflow drops the sample and bumps [obs_series_overflow_total].
    The [*_capacity] knobs size the series rings ({!Series.create})
    and the two fleet tables. [degraded_after] defaults to the
    manager's lease; see {!Health.create} for the rest. *)

val db : t -> Hw_hwdb.Database.t
(** The observer's hwdb ([Metrics] / [Traces] / [FleetMetrics] /
    [FleetHealth]) — subscribe to it, or front it with an RPC server. *)

val health : t -> Health.t
val tracer : t -> Hw_trace.Tracer.t

val scrape_now : t -> unit
(** Kick one scrape cycle immediately (it completes asynchronously as
    the event loop runs — the federated query must settle). *)

val health_tick : t -> unit
(** Run one health silence sweep immediately (normally paced by
    [tick_period]). *)

val scrapes_total : t -> int
(** Completed scrape cycles (the federated query settled and its rows
    were ingested). *)

val series_count : t -> int
(** Live series across all routers. *)

val series : t -> router:string -> string -> Series.t option
(** A router's series by key — the tracked metric name, suffixed
    [_<stat>] for non-[value] stats (e.g. [hwdb_query_seconds_p99]). *)

val series_footprint_floats : t -> int
(** Total fixed allocation of all series, in floats. *)

val render_prometheus : t -> string
(** The manager registry (escaped per the exposition format) followed by
    fleet series: per-router samples labeled [router="<id>"] and
    [__fleet__] sum/max aggregates. For a tracked histogram percentile
    (e.g. [..._p99]) the [__fleet__] max is the fleet-wide upper bound
    of that percentile. *)

val routes : t -> Hw_control_api.Router.t
val handle_http : t -> string -> string
(** Byte-level HTTP entry point ({!Hw_control_api.Router.handle_raw}). *)
