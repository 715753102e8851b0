//! Real-network smoke test: two containers on real UDP loopback sockets,
//! driven by wall-clock time. Verifies that nothing in the middleware
//! depends on the simulation harness.

use std::sync::{Arc, Mutex};

use marea::core::{
    ContainerConfig, EventPort, EventQos, Micros, NodeId, ProtoDuration, Service, ServiceContext,
    ServiceDescriptor, SystemClock, TimerId, VarPort, VarQos,
};
use marea::prelude::*;
use marea::transport::{UdpTransport, UdpTransportConfig};

struct Pinger {
    seq: VarPort<u64>,
    mark: EventPort<u64>,
}

impl Pinger {
    fn new() -> Self {
        Pinger { seq: VarPort::new("ping/seq"), mark: EventPort::new("ping/mark") }
    }
}

impl Service for Pinger {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("pinger")
            .provides_var(
                &self.seq,
                VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(200)),
            )
            .provides_event(&self.mark)
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(20), Some(ProtoDuration::from_millis(20)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let n = ctx.now().as_millis();
        ctx.publish_to(&self.seq, n);
        if n % 100 < 20 {
            ctx.emit_to(&self.mark, n);
        }
    }
}

struct Ponger {
    vars: Arc<Mutex<u64>>,
    events: Arc<Mutex<u64>>,
}

impl Service for Ponger {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("ponger")
            .subscribe_variable("ping/seq", VarQos::default())
            .subscribe_event("ping/mark", EventQos::default())
            .build()
    }

    fn on_variable(&mut self, _ctx: &mut ServiceContext<'_>, _n: &Name, _v: &Value, _s: Micros) {
        *self.vars.lock().unwrap() += 1;
    }

    fn on_event(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _n: &Name,
        _v: Option<&Value>,
        _s: Micros,
    ) {
        *self.events.lock().unwrap() += 1;
    }
}

#[test]
fn two_containers_over_real_udp_loopback() {
    // Bind both endpoints first to learn the ephemeral ports.
    let t1 = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
    let t2 = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
    let a1 = t1.local_addr().unwrap();
    let a2 = t2.local_addr().unwrap();
    let mut t1 = t1;
    let mut t2 = t2;
    t1.add_peer(2, a2);
    t2.add_peer(1, a1);

    let mut c1 =
        marea::core::ServiceContainer::new(ContainerConfig::new("udp-a", NodeId(1)), Box::new(t1));
    let mut c2 =
        marea::core::ServiceContainer::new(ContainerConfig::new("udp-b", NodeId(2)), Box::new(t2));
    c1.add_service(Box::new(Pinger::new())).unwrap();
    let vars = Arc::new(Mutex::new(0u64));
    let events = Arc::new(Mutex::new(0u64));
    c2.add_service(Box::new(Ponger { vars: vars.clone(), events: events.clone() })).unwrap();

    // Drive both containers from one thread against the wall clock,
    // ticking every millisecond *until the deliveries we wait for have
    // arrived* (bounded by a generous deadline). A fixed-length run would
    // flake on loaded CI machines where the loop is starved of CPU; the
    // convergence condition makes the test state *what* it waits for
    // instead of guessing how long that takes.
    const WANT_VARS: u64 = 30;
    const WANT_EVENTS: u64 = 2;
    let clock = SystemClock::new();
    c1.start(clock.now());
    c2.start(clock.now());
    // marea-lint: allow(D2): real-time UDP smoke test; wall-clock pacing is the point
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let now = clock.now();
        c1.tick(now);
        c2.tick(now);
        let done = *vars.lock().unwrap() >= WANT_VARS && *events.lock().unwrap() >= WANT_EVENTS;
        // marea-lint: allow(D2): real-time UDP smoke test; wall-clock pacing is the point
        if done || std::time::Instant::now() >= deadline {
            break;
        }
        // marea-lint: allow(D2): yields the CPU between real ticks; virtual time does not apply
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    c1.stop(clock.now());
    c2.stop(clock.now());

    let vars = *vars.lock().unwrap();
    let events = *events.lock().unwrap();
    assert!(vars >= WANT_VARS, "real UDP delivered a sample stream: {vars}");
    assert!(events >= WANT_EVENTS, "real UDP delivered reliable events: {events}");
}
