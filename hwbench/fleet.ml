(* A small fleet: routers calling home to one Manager, federated SELECTs
   one at a time while an Observer scrapes. Routers, manager and observer
   all live on the fleet harness's router loop; every datagram between
   them crosses one hop and is a timed entry call. The fleet gives every
   workload its fed_query metrics, and the trace runs their hw_fleet and
   hw_obs layers. *)

module R = Hw_router.Router
module EL = Hw_sim.Event_loop
module H = Harness
module D = Clients
module Rpc = Hw_hwdb.Rpc
module Manager = Hw_fleet.Manager
module Agent = Hw_fleet.Agent
module Observer = Hw_obs.Observer
module Vec = Acct.Vec

let size = 8

let fed_statement =
  "SELECT src_ip, SUM(bytes) AS bytes FROM Flows [RANGE 60 SECONDS] GROUP BY src_ip"

let scrape_statement = "SELECT name, stat, value FROM Metrics [NOW]"

(* Simulated seconds the fleet needs per 1000 queries (one query takes
   two hops plus the 5 ms gap before the next). *)
let sim_s_per_1000_queries = 8.

type kind = Query | Scrape | Other

type t = {
  h : H.t;
  manager : Manager.t;
  observer : Observer.t;
  mutable running : bool;
  mutable left : int;  (** queries still to send *)
  mutable q_ns : int;  (** busy time of the query in flight *)
  mutable s_ns : int;  (** busy time of every scrape cycle *)
  mutable scrapes : int;
  mutable outstanding : bool;
}

let create ~seed ~traced =
  let h = H.create ~traced () in
  let config = R.config ~hwdb_capacity:256 () in
  let homes =
    Array.init size (fun i ->
        H.add_home ~config ~with_net:false h ~seed:(Hw_sim.Prng.stream_seed ~seed ~index:i))
  in
  let fleet_ref = ref None in
  let charge kind self =
    match (!fleet_ref, kind) with
    | Some f, Query -> f.q_ns <- f.q_ns + self
    | Some f, Scrape -> f.s_ns <- f.s_ns + self
    | _ -> ()
  in
  (* (router id, seq) of each manager request, to attribute the reply *)
  let kinds : (string * int32, kind) Hashtbl.t = Hashtbl.create 64 in
  let agents = Hashtbl.create size in
  let manager =
    Manager.create ~seed ~loop:h.H.rloop
      ~send:(fun ~to_ data ->
        H.sim h (fun () ->
            let kind =
              match Rpc.decode data with
              | Ok (Rpc.Request { seq; statement; _ }) ->
                  let k =
                    if String.equal statement fed_statement then Query
                    else if String.equal statement scrape_statement then Scrape
                    else Other
                  in
                  Hashtbl.replace kinds (to_, seq) k;
                  k
              | _ -> Other
            in
            EL.at h.H.rloop (H.now_r h +. H.hop) (fun () ->
                match Hashtbl.find_opt agents to_ with
                | Some agent ->
                    charge kind
                      (H.call h H.c_fleet_rtr ~items:1 (fun () -> Agent.handle_datagram agent data))
                | None -> ())))
      ()
  in
  Array.iteri
    (fun i home ->
      let id = Printf.sprintf "r%04d" i in
      let agent =
        Agent.attach ~id ~router:home.H.router ~loop:h.H.rloop ~renew_period:5.
          ~seed:(Hw_sim.Prng.stream_seed ~seed ~index:(size + i))
          ~send:(fun data ->
            H.sim h (fun () ->
                let kind =
                  match Rpc.decode data with
                  | Ok (Rpc.Response_ok { seq; _ } | Rpc.Response_error { seq; _ }) -> (
                      match Hashtbl.find_opt kinds (id, seq) with
                      | Some k ->
                          Hashtbl.remove kinds (id, seq);
                          k
                      | None -> Other)
                  | _ -> Other
                in
                EL.at h.H.rloop (H.now_r h +. H.hop) (fun () ->
                    charge kind
                      (H.call h H.c_fleet_mgr ~items:1 (fun () ->
                           Manager.datagram manager ~from:id data)))))
          ()
      in
      Hashtbl.replace agents id agent)
    homes;
  let observer = Observer.create ~scrape_period:1e9 ~loop:h.H.rloop ~manager () in
  let f =
    {
      h;
      manager;
      observer;
      running = false;
      left = 0;
      q_ns = 0;
      s_ns = 0;
      scrapes = 0;
      outstanding = false;
    }
  in
  fleet_ref := Some f;
  if not (H.run_until_cond h ~within:30. (fun () -> Manager.session_count manager = size)) then
    failwith "setup: routers did not register";
  (* the observer scrapes every 10 simulated seconds *)
  EL.every h.H.rloop 10. (fun () ->
      if f.running then begin
        f.scrapes <- f.scrapes + 1;
        f.s_ns <- f.s_ns + H.call h H.c_scrape ~items:1 (fun () -> Observer.scrape_now observer)
      end);
  f

(* One federated SELECT at a time: the next is sent 5 ms after the
   previous settles. Every router must answer. *)
let rec send_query f =
  if f.running && f.left > 0 then begin
    f.left <- f.left - 1;
    D.attempt ();
    f.q_ns <- 0;
    f.outstanding <- true;
    let h = f.h in
    let finalize (o : Manager.outcome) () =
      Vec.push h.H.sm.H.fed_query (float_of_int f.q_ns);
      f.outstanding <- false;
      if o.Manager.ok <> size || o.Manager.errors <> [] then
        D.fail (Printf.sprintf "federated query: %d of %d routers answered" o.Manager.ok size);
      EL.at h.H.rloop (H.now_r h +. 0.005) (fun () -> send_query f)
    in
    let self =
      H.call h H.c_fleet_query ~items:1 (fun () ->
          Manager.query f.manager fed_statement ~on_done:(fun o ->
              (* settle after the call that delivered the last reply has
                 been charged *)
              H.sim h (fun () -> EL.at h.H.rloop (H.now_r h) (finalize o))))
    in
    f.q_ns <- f.q_ns + self
  end

let start f ~queries =
  H.arm_faults f.h;
  f.h.H.st <- H.new_stats ();
  f.h.H.sm <- H.new_samples ();
  f.s_ns <- 0;
  f.scrapes <- 0;
  f.left <- queries;
  f.running <- true;
  send_query f

(* A measured run cut short leaves queries unsent; the one in flight
   must still settle. *)
let finish f =
  if not (H.run_until_cond f.h ~within:30. (fun () -> not f.outstanding)) then
    D.fail "fleet: a federated query never settled";
  f.running <- false

let scrape_ns f = if f.scrapes = 0 then 0. else float_of_int f.s_ns /. float_of_int f.scrapes
