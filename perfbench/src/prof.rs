//! Outside-in layer timers.
//!
//! Every call the benchmark makes into the system goes through
//! [`Prof::time`], tagged with the layer that serves it. Off, a timer is
//! one branch; on, it counts the call and, for a sampled call, reads the
//! clock on both sides, adds the duration to the layer's sampled busy
//! time and keeps the call as a span. Calls never nest (the benchmark's
//! own event loops make them one after another), so a span's duration is
//! its self time and the layer totals tile the measured phase up to the
//! benchmark's own bookkeeping.
//!
//! The clock is the CPU's time-stamp counter on x86-64: one instruction
//! and no memory access, so a call timed rarely reads it as fast as one
//! timed often. (The system clock reads a shared page; on the machine
//! this was built on it cost ~50 ns cold, and sparse sampling then
//! overstated the hottest layers by up to 6%.) Elsewhere it is the
//! monotonic clock.
//!
//! Even so, timing every call would slow the hottest layers, calls of
//! 50–400 ns, by a clock pair each. Those layers time one call in
//! [`HOT_SAMPLE`] on average and scale the sampled busy time by calls
//! over sampled calls. The gap to the next timed call is drawn at random,
//! uniform on `0..2 * HOT_SAMPLE - 1` skipped calls, from a generator of
//! the profiler's own: a fixed stride can line up with the event loop's
//! periodic sequence of pops, pushes and handlers and then over- or
//! under-count a layer, a random gap cannot. Every other layer times
//! every call. Each timed duration has the clock pair's own cost,
//! calibrated once per process, taken off.

use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A raw clock reading: time-stamp counter cycles on x86-64,
/// nanoseconds since the first reading elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; every x86-64 CPU has it.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The clock's calibration, measured once per process.
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// Nanoseconds per tick, from a 20 ms spin against the system clock.
    ns_per_tick: f64,
    /// Median ticks an empty timed call reads.
    floor: u64,
}

fn clock() -> Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        let (i0, t0) = (Instant::now(), ticks());
        while i0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (i1, t1) = (Instant::now(), ticks());
        let mut d: Vec<u64> = (0..20_001)
            .map(|_| {
                let t = ticks();
                std::hint::black_box(());
                ticks().wrapping_sub(t)
            })
            .collect();
        d.sort_unstable();
        Clock {
            ns_per_tick: (i1 - i0).as_nanos() as f64 / t1.wrapping_sub(t0).max(1) as f64,
            floor: d[d.len() / 2],
        }
    })
}

/// The layer a timed call is attributed to. The names are the module
/// names of the repository, as `layer.detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    GatewaySubmit,
    GatewayPump,
    SchedSubmit,
    SchedDecide,
    SchedDrain,
    DevmgrCreatePod,
    DevmgrDelete,
    DevmgrOther,
    PartitionActivate,
    ClusterScheduleAttempt,
    ClusterBind,
    ClusterStarted,
    ClusterStopped,
    VgpuHandle,
    VgpuSubmitBurst,
    VgpuAttach,
    VgpuDetach,
    WorkloadsStep,
    SimPop,
    SimPush,
    TelemetryScrape,
    TelemetrySlo,
}

impl Layer {
    pub const ALL: [Layer; 22] = [
        Layer::GatewaySubmit,
        Layer::GatewayPump,
        Layer::SchedSubmit,
        Layer::SchedDecide,
        Layer::SchedDrain,
        Layer::DevmgrCreatePod,
        Layer::DevmgrDelete,
        Layer::DevmgrOther,
        Layer::PartitionActivate,
        Layer::ClusterScheduleAttempt,
        Layer::ClusterBind,
        Layer::ClusterStarted,
        Layer::ClusterStopped,
        Layer::VgpuHandle,
        Layer::VgpuSubmitBurst,
        Layer::VgpuAttach,
        Layer::VgpuDetach,
        Layer::WorkloadsStep,
        Layer::SimPop,
        Layer::SimPush,
        Layer::TelemetryScrape,
        Layer::TelemetrySlo,
    ];

    /// The layers that time one call in [`HOT_SAMPLE`], at random gaps;
    /// every other layer times every call.
    fn is_hot(self) -> bool {
        matches!(
            self,
            Layer::SimPop
                | Layer::SimPush
                | Layer::VgpuHandle
                | Layer::VgpuSubmitBurst
                | Layer::WorkloadsStep
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Layer::GatewaySubmit => "gateway.submit",
            Layer::GatewayPump => "gateway.pump",
            Layer::SchedSubmit => "sched.submit",
            Layer::SchedDecide => "sched.decide_event",
            Layer::SchedDrain => "sched.drain",
            Layer::DevmgrCreatePod => "devmgr.create_pod",
            Layer::DevmgrDelete => "devmgr.delete",
            Layer::DevmgrOther => "devmgr.other",
            Layer::PartitionActivate => "partition.activate",
            Layer::ClusterScheduleAttempt => "cluster.schedule_attempt",
            Layer::ClusterBind => "cluster.bind",
            Layer::ClusterStarted => "cluster.started",
            Layer::ClusterStopped => "cluster.stopped",
            Layer::VgpuHandle => "vgpu.handle",
            Layer::VgpuSubmitBurst => "vgpu.submit_burst",
            Layer::VgpuAttach => "vgpu.attach",
            Layer::VgpuDetach => "vgpu.detach",
            Layer::WorkloadsStep => "workloads.step",
            Layer::SimPop => "sim.pop",
            Layer::SimPush => "sim.push",
            Layer::TelemetryScrape => "telemetry.scrape",
            Layer::TelemetrySlo => "telemetry.slo",
        }
    }
}

/// Mean sampling period of the hottest layers; a power of two.
const HOT_SAMPLE: u64 = 64;

/// Seed of the sampling generator. It is fixed, so a run times the same
/// calls every time, and shares nothing with the simulation's streams.
const SAMPLER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Calls and busy time of one layer; `busy_ns` is estimated from the
/// sampled calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub busy_ns: f64,
}

impl LayerStat {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns / self.calls as f64
        }
    }
}

/// Raw timer state of one layer.
#[derive(Debug, Clone, Copy, Default)]
struct Timer {
    calls: u64,
    sampled: u64,
    sampled_ticks: u64,
    /// Hot layers: calls left to skip before the next timed one.
    skip: u64,
}

/// One timed call, in ticks: its start from the measured phase's start,
/// and its duration.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    dur: u64,
}

/// Spans kept per trial; the newest win once the ring is full.
const SPAN_CAP: usize = 1 << 16;

/// Layer timers for one trial.
pub struct Prof {
    on: bool,
    clock: Clock,
    origin: u64,
    timers: [Timer; Layer::ALL.len()],
    spans: Vec<Span>,
    spans_seen: u64,
    /// xorshift64 state of the hot layers' sampling gaps.
    sampler: u64,
}

impl Prof {
    pub fn new(on: bool) -> Self {
        Prof {
            on,
            clock: if on {
                clock()
            } else {
                Clock {
                    ns_per_tick: 0.0,
                    floor: 0,
                }
            },
            origin: ticks(),
            timers: [Timer::default(); Layer::ALL.len()],
            spans: Vec::new(),
            spans_seen: 0,
            sampler: SAMPLER_SEED,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A random gap, uniform on `0..2 * HOT_SAMPLE - 1` calls (mean
    /// `HOT_SAMPLE - 1`, so one call in `HOT_SAMPLE` is timed).
    fn gap(&mut self) -> u64 {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        (x >> 32) % (2 * HOT_SAMPLE - 1)
    }

    /// Counts a call of `layer` and says whether to time it.
    #[inline]
    fn sample(&mut self, layer: Layer) -> bool {
        let t = &mut self.timers[layer as usize];
        t.calls += 1;
        if !layer.is_hot() {
            return true;
        }
        if t.skip > 0 {
            t.skip -= 1;
            return false;
        }
        let gap = self.gap();
        self.timers[layer as usize].skip = gap;
        true
    }

    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        // One call site for `f`, timed or not: a second, inlined copy
        // for the timed calls would run from a colder cache than the
        // untimed one and overstate the layer.
        let timed = self.on && self.sample(layer);
        let t0 = if timed { ticks() } else { 0 };
        let r = f();
        if timed {
            self.record(layer, t0);
        }
        r
    }

    /// Ends the timed call of `layer` that started at `t0`.
    fn record(&mut self, layer: Layer, t0: u64) {
        let dur = ticks().wrapping_sub(t0).saturating_sub(self.clock.floor);
        let t = &mut self.timers[layer as usize];
        t.sampled += 1;
        t.sampled_ticks += dur;
        let span = Span {
            layer,
            start: t0.wrapping_sub(self.origin),
            dur,
        };
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.spans[(self.spans_seen % SPAN_CAP as u64) as usize] = span;
        }
        self.spans_seen += 1;
    }

    pub fn stat(&self, layer: Layer) -> LayerStat {
        let t = self.timers[layer as usize];
        LayerStat {
            calls: t.calls,
            busy_ns: if t.sampled == 0 {
                0.0
            } else {
                t.sampled_ticks as f64 * self.clock.ns_per_tick * t.calls as f64 / t.sampled as f64
            },
        }
    }

    /// Busy time over every layer.
    pub fn attributed_ns(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.stat(l).busy_ns).sum()
    }

    /// Writes the kept spans as JSON lines, oldest first.
    pub fn write_spans(&self, w: &mut impl Write, trial: usize) -> std::io::Result<()> {
        let split = if self.spans.len() < SPAN_CAP {
            0
        } else {
            (self.spans_seen % SPAN_CAP as u64) as usize
        };
        let (newer, older) = self.spans.split_at(split);
        let ns = |t: u64| (t as f64 * self.clock.ns_per_tick).round() as u64;
        for (id, s) in older.iter().chain(newer).enumerate() {
            writeln!(
                w,
                "{{\"trial\":{trial},\"id\":{id},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer.name(),
                ns(s.start),
                ns(s.dur)
            )?;
        }
        Ok(())
    }
}
