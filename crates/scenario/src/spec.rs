//! Typed scenario specs: partial machine/software/params descriptions that
//! parse from JSON with field-path errors, render back deterministically,
//! merge field-wise (later wins), and resolve into validated simulator
//! configurations.
//!
//! Every spec type is *partial*: each field is optional and `None` means
//! "inherit". Resolution starts from a named preset (machine default:
//! `upgraded_baseline`; software default: `legacy`) and applies the
//! overrides on top, then runs the target type's own validation
//! ([`MachineConfig::validate`]), so a scenario can never build a machine
//! the simulator would reject at runtime.
//!
//! Two fields are *double-optional*: `machine.fcp` and
//! `machine.fault_plan`. Omitting them inherits; an explicit JSON `null`
//! disables the feature even if an earlier layer enabled it.

use crate::error::ScenarioError;
use tartan_telemetry::json::JsonValue;
use tartan_robots::{NeuralExec, NnsKind, Scale, SoftwareConfig, VecMethod};
use tartan_sim::{
    FaultPlan, FcpConfig, FcpManipulation, MachineConfig, NpuMode, PrefetcherKind, VectorIsa,
};

/// Version of the scenario file format this build reads and writes.
pub const SCENARIO_SCHEMA_VERSION: u64 = 1;

// ----------------------------------------------------------- JSON helpers

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn type_err(path: &str, expected: &str, got: &JsonValue) -> ScenarioError {
    ScenarioError::new(path, format!("expected {expected}, got {}", got.kind()))
}

fn obj<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [(String, JsonValue)], ScenarioError> {
    match v {
        JsonValue::Obj(fields) => Ok(fields),
        other => Err(type_err(path, "an object", other)),
    }
}

fn arr<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [JsonValue], ScenarioError> {
    match v {
        JsonValue::Arr(items) => Ok(items),
        other => Err(type_err(path, "an array", other)),
    }
}

fn str_of<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, ScenarioError> {
    match v {
        JsonValue::Str(s) => Ok(s),
        other => Err(type_err(path, "a string", other)),
    }
}

fn u64_of(v: &JsonValue, path: &str) -> Result<u64, ScenarioError> {
    match v {
        JsonValue::Num(raw) => raw.parse::<u64>().map_err(|_| {
            ScenarioError::new(path, format!("expected an unsigned integer, got {raw}"))
        }),
        other => Err(type_err(path, "an unsigned integer", other)),
    }
}

fn u32_of(v: &JsonValue, path: &str) -> Result<u32, ScenarioError> {
    let n = u64_of(v, path)?;
    u32::try_from(n)
        .map_err(|_| ScenarioError::new(path, format!("{n} does not fit in 32 bits")))
}

fn usize_of(v: &JsonValue, path: &str) -> Result<usize, ScenarioError> {
    let n = u64_of(v, path)?;
    usize::try_from(n)
        .map_err(|_| ScenarioError::new(path, format!("{n} does not fit in a usize")))
}

fn f64_of(v: &JsonValue, path: &str) -> Result<f64, ScenarioError> {
    match v {
        JsonValue::Num(raw) => raw
            .parse::<f64>()
            .map_err(|_| ScenarioError::new(path, format!("expected a number, got {raw}"))),
        other => Err(type_err(path, "a number", other)),
    }
}

fn bool_of(v: &JsonValue, path: &str) -> Result<bool, ScenarioError> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        other => Err(type_err(path, "a boolean", other)),
    }
}

fn keyword<T: Copy>(
    v: &JsonValue,
    path: &str,
    table: &[(&str, T)],
) -> Result<T, ScenarioError> {
    let s = str_of(v, path)?;
    table
        .iter()
        .find(|(name, _)| *name == s)
        .map(|(_, value)| *value)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            ScenarioError::new(
                path,
                format!("unknown value {s:?} (expected one of {})", names.join(", ")),
            )
        })
}

fn keyword_name<T: PartialEq>(value: T, table: &[(&'static str, T)]) -> &'static str {
    table
        .iter()
        .find(|(_, v)| *v == value)
        .map(|(name, _)| *name)
        .expect("every enum variant has a table entry")
}

fn unknown_field(path: &str, key: &str, known: &[&str]) -> ScenarioError {
    ScenarioError::new(
        join(path, key),
        format!("unknown field (known fields: {})", known.join(", ")),
    )
}

fn num(n: u64) -> JsonValue {
    JsonValue::Num(n.to_string())
}

fn fnum(x: f64) -> JsonValue {
    JsonValue::Num(format!("{x}"))
}

// Keyword tables: the single source of spelling for every enum the schema
// exposes.
const VECTOR_ISAS: [(&str, VectorIsa); 2] =
    [("avx2", VectorIsa::Avx2), ("avx512", VectorIsa::Avx512)];
const PREFETCHERS: [(&str, PrefetcherKind); 4] = [
    ("none", PrefetcherKind::None),
    ("nextline", PrefetcherKind::NextLine),
    ("anl", PrefetcherKind::Anl),
    ("bingo", PrefetcherKind::Bingo),
];
const MANIPULATIONS: [(&str, FcpManipulation); 3] = [
    ("x+1", FcpManipulation::Increment),
    ("2x", FcpManipulation::Double),
    ("x^2", FcpManipulation::Square),
];
const VEC_METHODS: [(&str, VecMethod); 4] = [
    ("scalar", VecMethod::Scalar),
    ("gather", VecMethod::Gather),
    ("ovec", VecMethod::Ovec),
    ("racod", VecMethod::Racod),
];
const NNS_KINDS: [(&str, NnsKind); 4] = [
    ("brute", NnsKind::Brute),
    ("kdtree", NnsKind::KdTree),
    ("flann", NnsKind::Flann),
    ("vln", NnsKind::Vln),
];
const NEURAL_EXECS: [(&str, NeuralExec); 3] = [
    ("none", NeuralExec::None),
    ("npu", NeuralExec::Npu),
    ("software", NeuralExec::Software),
];

fn merge_opt<T: Clone>(base: &Option<T>, over: &Option<T>) -> Option<T> {
    over.clone().or_else(|| base.clone())
}

fn opt<T>(differs: bool, v: T) -> Option<T> {
    if differs {
        Some(v)
    } else {
        None
    }
}

// -------------------------------------------------------------- CacheSpec

/// Partial override of one cache level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSpec {
    /// Total capacity in bytes.
    pub size_bytes: Option<u64>,
    /// Associativity.
    pub ways: Option<u32>,
    /// Access latency in cycles.
    pub latency: Option<u64>,
}

impl CacheSpec {
    const FIELDS: [&'static str; 3] = ["size_bytes", "ways", "latency"];

    fn parse(v: &JsonValue, path: &str) -> Result<CacheSpec, ScenarioError> {
        let mut spec = CacheSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "size_bytes" => spec.size_bytes = Some(u64_of(value, &p)?),
                "ways" => spec.ways = Some(u32_of(value, &p)?),
                "latency" => spec.latency = Some(u64_of(value, &p)?),
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    fn to_value(&self) -> JsonValue {
        let mut fields = Vec::new();
        if let Some(n) = self.size_bytes {
            fields.push(("size_bytes".into(), num(n)));
        }
        if let Some(n) = self.ways {
            fields.push(("ways".into(), num(u64::from(n))));
        }
        if let Some(n) = self.latency {
            fields.push(("latency".into(), num(n)));
        }
        JsonValue::Obj(fields)
    }

    fn merged(&self, over: &CacheSpec) -> CacheSpec {
        CacheSpec {
            size_bytes: over.size_bytes.or(self.size_bytes),
            ways: over.ways.or(self.ways),
            latency: over.latency.or(self.latency),
        }
    }

    fn apply(&self, level: &mut tartan_sim::CacheConfig) {
        if let Some(n) = self.size_bytes {
            level.size_bytes = n;
        }
        if let Some(n) = self.ways {
            level.ways = n;
        }
        if let Some(n) = self.latency {
            level.latency = n;
        }
    }
}

// ---------------------------------------------------------------- FcpSpec

/// Partial override of the FCP parameters (base:
/// [`FcpConfig::paper_default`] or whatever the preset already enables).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FcpSpec {
    /// Region size in bytes.
    pub region_bytes: Option<u64>,
    /// XOR width.
    pub xor_bits: Option<u32>,
    /// Recency manipulation: `"x+1"`, `"2x"`, or `"x^2"`.
    pub manipulation: Option<FcpManipulation>,
}

impl FcpSpec {
    const FIELDS: [&'static str; 3] = ["region_bytes", "xor_bits", "manipulation"];

    fn parse(v: &JsonValue, path: &str) -> Result<FcpSpec, ScenarioError> {
        let mut spec = FcpSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "region_bytes" => spec.region_bytes = Some(u64_of(value, &p)?),
                "xor_bits" => spec.xor_bits = Some(u32_of(value, &p)?),
                "manipulation" => spec.manipulation = Some(keyword(value, &p, &MANIPULATIONS)?),
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    fn to_value(&self) -> JsonValue {
        let mut fields = Vec::new();
        if let Some(n) = self.region_bytes {
            fields.push(("region_bytes".into(), num(n)));
        }
        if let Some(n) = self.xor_bits {
            fields.push(("xor_bits".into(), num(u64::from(n))));
        }
        if let Some(m) = self.manipulation {
            fields.push((
                "manipulation".into(),
                JsonValue::Str(keyword_name(m, &MANIPULATIONS).into()),
            ));
        }
        JsonValue::Obj(fields)
    }

    fn merged(&self, over: &FcpSpec) -> FcpSpec {
        FcpSpec {
            region_bytes: over.region_bytes.or(self.region_bytes),
            xor_bits: over.xor_bits.or(self.xor_bits),
            manipulation: over.manipulation.or(self.manipulation),
        }
    }

    fn resolve(&self, base: FcpConfig) -> FcpConfig {
        FcpConfig {
            region_bytes: self.region_bytes.unwrap_or(base.region_bytes),
            xor_bits: self.xor_bits.unwrap_or(base.xor_bits),
            manipulation: self.manipulation.unwrap_or(base.manipulation),
        }
    }
}

// -------------------------------------------------------------- FaultSpec

/// Partial override of the fault-injection plan (base: a quiet plan).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Fault RNG seed.
    pub seed: Option<u64>,
    /// Per-invocation relative-error probability.
    pub accel_error_rate: Option<f64>,
    /// Maximum relative-error magnitude.
    pub accel_error_magnitude: Option<f64>,
    /// Per-invocation bit-flip probability.
    pub accel_bitflip_rate: Option<f64>,
    /// Per-invocation outright-failure probability.
    pub accel_fail_rate: Option<f64>,
    /// Per-access memory latency-spike probability.
    pub mem_spike_rate: Option<f64>,
    /// Extra cycles per latency spike.
    pub mem_spike_cycles: Option<u64>,
}

impl FaultSpec {
    const FIELDS: [&'static str; 7] = [
        "seed",
        "accel_error_rate",
        "accel_error_magnitude",
        "accel_bitflip_rate",
        "accel_fail_rate",
        "mem_spike_rate",
        "mem_spike_cycles",
    ];

    fn parse(v: &JsonValue, path: &str) -> Result<FaultSpec, ScenarioError> {
        let mut spec = FaultSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "seed" => spec.seed = Some(u64_of(value, &p)?),
                "accel_error_rate" => spec.accel_error_rate = Some(f64_of(value, &p)?),
                "accel_error_magnitude" => {
                    spec.accel_error_magnitude = Some(f64_of(value, &p)?);
                }
                "accel_bitflip_rate" => spec.accel_bitflip_rate = Some(f64_of(value, &p)?),
                "accel_fail_rate" => spec.accel_fail_rate = Some(f64_of(value, &p)?),
                "mem_spike_rate" => spec.mem_spike_rate = Some(f64_of(value, &p)?),
                "mem_spike_cycles" => spec.mem_spike_cycles = Some(u64_of(value, &p)?),
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    fn to_value(&self) -> JsonValue {
        let mut fields = Vec::new();
        if let Some(n) = self.seed {
            fields.push(("seed".into(), num(n)));
        }
        for (name, value) in [
            ("accel_error_rate", self.accel_error_rate),
            ("accel_error_magnitude", self.accel_error_magnitude),
            ("accel_bitflip_rate", self.accel_bitflip_rate),
            ("accel_fail_rate", self.accel_fail_rate),
            ("mem_spike_rate", self.mem_spike_rate),
        ] {
            if let Some(x) = value {
                fields.push((name.into(), fnum(x)));
            }
        }
        if let Some(n) = self.mem_spike_cycles {
            fields.push(("mem_spike_cycles".into(), num(n)));
        }
        JsonValue::Obj(fields)
    }

    fn merged(&self, over: &FaultSpec) -> FaultSpec {
        FaultSpec {
            seed: over.seed.or(self.seed),
            accel_error_rate: over.accel_error_rate.or(self.accel_error_rate),
            accel_error_magnitude: over.accel_error_magnitude.or(self.accel_error_magnitude),
            accel_bitflip_rate: over.accel_bitflip_rate.or(self.accel_bitflip_rate),
            accel_fail_rate: over.accel_fail_rate.or(self.accel_fail_rate),
            mem_spike_rate: over.mem_spike_rate.or(self.mem_spike_rate),
            mem_spike_cycles: over.mem_spike_cycles.or(self.mem_spike_cycles),
        }
    }

    fn resolve(&self, base: FaultPlan) -> FaultPlan {
        FaultPlan {
            seed: self.seed.unwrap_or(base.seed),
            accel_error_rate: self.accel_error_rate.unwrap_or(base.accel_error_rate),
            accel_error_magnitude: self
                .accel_error_magnitude
                .unwrap_or(base.accel_error_magnitude),
            accel_bitflip_rate: self.accel_bitflip_rate.unwrap_or(base.accel_bitflip_rate),
            accel_fail_rate: self.accel_fail_rate.unwrap_or(base.accel_fail_rate),
            mem_spike_rate: self.mem_spike_rate.unwrap_or(base.mem_spike_rate),
            mem_spike_cycles: self.mem_spike_cycles.unwrap_or(base.mem_spike_cycles),
        }
    }
}

// ------------------------------------------------------------ MachineSpec

/// Partial machine description: a preset name plus any number of field
/// overrides.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineSpec {
    /// Starting preset: `legacy_baseline`, `upgraded_baseline` (default),
    /// or `tartan`. When specs are merged, the *last* preset mentioned
    /// wins and all merged field overrides apply on top of it.
    pub preset: Option<String>,
    /// Core count.
    pub cores: Option<usize>,
    /// Cache line size in bytes.
    pub line_bytes: Option<u64>,
    /// L1-D overrides.
    pub l1: Option<CacheSpec>,
    /// Private-L2 overrides.
    pub l2: Option<CacheSpec>,
    /// Shared-L3 overrides.
    pub l3: Option<CacheSpec>,
    /// DRAM latency in cycles.
    pub dram_latency: Option<u64>,
    /// DRAM bandwidth in bytes per core cycle.
    pub dram_bytes_per_cycle: Option<u64>,
    /// Issue width.
    pub issue_width: Option<u64>,
    /// Memory-level parallelism.
    pub mlp: Option<u64>,
    /// L1 ports.
    pub l1_ports: Option<u64>,
    /// `"avx2"` or `"avx512"`.
    pub vector_isa: Option<VectorIsa>,
    /// OVEC extension present.
    pub ovec: Option<bool>,
    /// OVEC address-generation latency in cycles.
    pub ovec_addr_gen_latency: Option<u64>,
    /// `"none"`, `"nextline"`, `"anl"`, or `"bingo"`.
    pub prefetcher: Option<PrefetcherKind>,
    /// ANL region size in bytes.
    pub anl_region_bytes: Option<u64>,
    /// FCP: omitted = inherit, JSON `null` = disable, object = enable with
    /// overrides over the inherited/paper parameters.
    pub fcp: Option<Option<FcpSpec>>,
    /// NPU attachment: `{"mode": "none"}`, `{"mode": "integrated",
    /// "pes": N}`, or `{"mode": "coprocessor"}`.
    pub npu: Option<NpuMode>,
    /// NPU MAC latency.
    pub npu_mac_latency: Option<u64>,
    /// Integrated-NPU communication latency.
    pub npu_comm_latency: Option<u64>,
    /// Co-processor communication latency.
    pub npu_coproc_comm_latency: Option<u64>,
    /// Write-through producer/consumer regions.
    pub write_through_regions: Option<bool>,
    /// Intel ray-casting accelerator model.
    pub intel_lvs: Option<bool>,
    /// Fault plan: omitted = inherit, JSON `null` = disable, object =
    /// enable with overrides over a quiet plan.
    pub fault_plan: Option<Option<FaultSpec>>,
}

impl MachineSpec {
    const FIELDS: [&'static str; 24] = [
        "preset",
        "cores",
        "line_bytes",
        "l1",
        "l2",
        "l3",
        "dram_latency",
        "dram_bytes_per_cycle",
        "issue_width",
        "mlp",
        "l1_ports",
        "vector_isa",
        "ovec",
        "ovec_addr_gen_latency",
        "prefetcher",
        "anl_region_bytes",
        "fcp",
        "npu",
        "npu_mac_latency",
        "npu_comm_latency",
        "npu_coproc_comm_latency",
        "write_through_regions",
        "intel_lvs",
        "fault_plan",
    ];

    /// Parses a machine spec from a JSON object.
    pub fn parse(v: &JsonValue, path: &str) -> Result<MachineSpec, ScenarioError> {
        let mut spec = MachineSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "preset" => spec.preset = Some(str_of(value, &p)?.to_string()),
                "cores" => spec.cores = Some(usize_of(value, &p)?),
                "line_bytes" => spec.line_bytes = Some(u64_of(value, &p)?),
                "l1" => spec.l1 = Some(CacheSpec::parse(value, &p)?),
                "l2" => spec.l2 = Some(CacheSpec::parse(value, &p)?),
                "l3" => spec.l3 = Some(CacheSpec::parse(value, &p)?),
                "dram_latency" => spec.dram_latency = Some(u64_of(value, &p)?),
                "dram_bytes_per_cycle" => {
                    spec.dram_bytes_per_cycle = Some(u64_of(value, &p)?);
                }
                "issue_width" => spec.issue_width = Some(u64_of(value, &p)?),
                "mlp" => spec.mlp = Some(u64_of(value, &p)?),
                "l1_ports" => spec.l1_ports = Some(u64_of(value, &p)?),
                "vector_isa" => spec.vector_isa = Some(keyword(value, &p, &VECTOR_ISAS)?),
                "ovec" => spec.ovec = Some(bool_of(value, &p)?),
                "ovec_addr_gen_latency" => {
                    spec.ovec_addr_gen_latency = Some(u64_of(value, &p)?);
                }
                "prefetcher" => spec.prefetcher = Some(keyword(value, &p, &PREFETCHERS)?),
                "anl_region_bytes" => spec.anl_region_bytes = Some(u64_of(value, &p)?),
                "fcp" => {
                    spec.fcp = Some(match value {
                        JsonValue::Null => None,
                        other => Some(FcpSpec::parse(other, &p)?),
                    });
                }
                "npu" => spec.npu = Some(parse_npu(value, &p)?),
                "npu_mac_latency" => spec.npu_mac_latency = Some(u64_of(value, &p)?),
                "npu_comm_latency" => spec.npu_comm_latency = Some(u64_of(value, &p)?),
                "npu_coproc_comm_latency" => {
                    spec.npu_coproc_comm_latency = Some(u64_of(value, &p)?);
                }
                "write_through_regions" => {
                    spec.write_through_regions = Some(bool_of(value, &p)?);
                }
                "intel_lvs" => spec.intel_lvs = Some(bool_of(value, &p)?),
                "fault_plan" => {
                    spec.fault_plan = Some(match value {
                        JsonValue::Null => None,
                        other => Some(FaultSpec::parse(other, &p)?),
                    });
                }
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    /// Renders the spec (omitted fields stay omitted; explicit disables
    /// render as `null`).
    pub fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(p) = &self.preset {
            fields.push(("preset".into(), JsonValue::Str(p.clone())));
        }
        if let Some(n) = self.cores {
            fields.push(("cores".into(), num(n as u64)));
        }
        for (name, value) in [
            ("line_bytes", self.line_bytes),
            ("dram_latency", self.dram_latency),
            ("dram_bytes_per_cycle", self.dram_bytes_per_cycle),
            ("issue_width", self.issue_width),
            ("mlp", self.mlp),
            ("l1_ports", self.l1_ports),
            ("ovec_addr_gen_latency", self.ovec_addr_gen_latency),
            ("anl_region_bytes", self.anl_region_bytes),
            ("npu_mac_latency", self.npu_mac_latency),
            ("npu_comm_latency", self.npu_comm_latency),
            ("npu_coproc_comm_latency", self.npu_coproc_comm_latency),
        ] {
            if let Some(n) = value {
                fields.push((name.into(), num(n)));
            }
        }
        for (name, level) in [("l1", &self.l1), ("l2", &self.l2), ("l3", &self.l3)] {
            if let Some(spec) = level {
                fields.push((name.into(), spec.to_value()));
            }
        }
        if let Some(isa) = self.vector_isa {
            fields.push((
                "vector_isa".into(),
                JsonValue::Str(keyword_name(isa, &VECTOR_ISAS).into()),
            ));
        }
        if let Some(b) = self.ovec {
            fields.push(("ovec".into(), JsonValue::Bool(b)));
        }
        if let Some(pf) = self.prefetcher {
            fields.push((
                "prefetcher".into(),
                JsonValue::Str(keyword_name(pf, &PREFETCHERS).into()),
            ));
        }
        if let Some(fcp) = &self.fcp {
            fields.push((
                "fcp".into(),
                match fcp {
                    None => JsonValue::Null,
                    Some(spec) => spec.to_value(),
                },
            ));
        }
        if let Some(npu) = self.npu {
            fields.push(("npu".into(), npu_to_value(npu)));
        }
        if let Some(b) = self.write_through_regions {
            fields.push(("write_through_regions".into(), JsonValue::Bool(b)));
        }
        if let Some(b) = self.intel_lvs {
            fields.push(("intel_lvs".into(), JsonValue::Bool(b)));
        }
        if let Some(plan) = &self.fault_plan {
            fields.push((
                "fault_plan".into(),
                match plan {
                    None => JsonValue::Null,
                    Some(spec) => spec.to_value(),
                },
            ));
        }
        JsonValue::Obj(fields)
    }

    /// Field-wise merge; `over`'s fields win. Nested partials (`l1`–`l3`,
    /// `fcp`, `fault_plan`) merge field-wise too, except that `over`'s
    /// explicit `null` on `fcp`/`fault_plan` discards the base entirely.
    pub fn merged(&self, over: &MachineSpec) -> MachineSpec {
        let merge_level = |base: &Option<CacheSpec>, over: &Option<CacheSpec>| match (base, over) {
            (Some(b), Some(o)) => Some(b.merged(o)),
            (b, o) => o.clone().or_else(|| b.clone()),
        };
        MachineSpec {
            preset: merge_opt(&self.preset, &over.preset),
            cores: over.cores.or(self.cores),
            line_bytes: over.line_bytes.or(self.line_bytes),
            l1: merge_level(&self.l1, &over.l1),
            l2: merge_level(&self.l2, &over.l2),
            l3: merge_level(&self.l3, &over.l3),
            dram_latency: over.dram_latency.or(self.dram_latency),
            dram_bytes_per_cycle: over.dram_bytes_per_cycle.or(self.dram_bytes_per_cycle),
            issue_width: over.issue_width.or(self.issue_width),
            mlp: over.mlp.or(self.mlp),
            l1_ports: over.l1_ports.or(self.l1_ports),
            vector_isa: over.vector_isa.or(self.vector_isa),
            ovec: over.ovec.or(self.ovec),
            ovec_addr_gen_latency: over.ovec_addr_gen_latency.or(self.ovec_addr_gen_latency),
            prefetcher: over.prefetcher.or(self.prefetcher),
            anl_region_bytes: over.anl_region_bytes.or(self.anl_region_bytes),
            fcp: match (&self.fcp, &over.fcp) {
                (Some(Some(b)), Some(Some(o))) => Some(Some(b.merged(o))),
                (b, o) => o.clone().or_else(|| b.clone()),
            },
            npu: over.npu.or(self.npu),
            npu_mac_latency: over.npu_mac_latency.or(self.npu_mac_latency),
            npu_comm_latency: over.npu_comm_latency.or(self.npu_comm_latency),
            npu_coproc_comm_latency: over
                .npu_coproc_comm_latency
                .or(self.npu_coproc_comm_latency),
            write_through_regions: over.write_through_regions.or(self.write_through_regions),
            intel_lvs: over.intel_lvs.or(self.intel_lvs),
            fault_plan: match (&self.fault_plan, &over.fault_plan) {
                (Some(Some(b)), Some(Some(o))) => Some(Some(b.merged(o))),
                (b, o) => o.clone().or_else(|| b.clone()),
            },
        }
    }

    /// Resolves into a validated [`MachineConfig`]: preset first, then
    /// overrides, then [`MachineConfig::validate`]. `path` prefixes error
    /// paths (e.g. `groups[0].machine`).
    pub fn resolve(&self, path: &str) -> Result<MachineConfig, ScenarioError> {
        let mut cfg = match &self.preset {
            None => MachineConfig::upgraded_baseline(),
            Some(name) => MachineConfig::from_preset(name).ok_or_else(|| {
                ScenarioError::new(
                    join(path, "preset"),
                    format!(
                        "unknown preset {name:?} (expected one of {})",
                        MachineConfig::PRESETS.join(", ")
                    ),
                )
            })?,
        };
        if let Some(n) = self.cores {
            cfg.cores = n;
        }
        if let Some(n) = self.line_bytes {
            cfg.line_bytes = n;
        }
        if let Some(spec) = &self.l1 {
            spec.apply(&mut cfg.l1);
        }
        if let Some(spec) = &self.l2 {
            spec.apply(&mut cfg.l2);
        }
        if let Some(spec) = &self.l3 {
            spec.apply(&mut cfg.l3);
        }
        if let Some(n) = self.dram_latency {
            cfg.dram_latency = n;
        }
        if let Some(n) = self.dram_bytes_per_cycle {
            cfg.dram_bytes_per_cycle = n;
        }
        if let Some(n) = self.issue_width {
            cfg.issue_width = n;
        }
        if let Some(n) = self.mlp {
            cfg.mlp = n;
        }
        if let Some(n) = self.l1_ports {
            cfg.l1_ports = n;
        }
        if let Some(isa) = self.vector_isa {
            cfg.vector_isa = isa;
        }
        if let Some(b) = self.ovec {
            cfg.ovec = b;
        }
        if let Some(n) = self.ovec_addr_gen_latency {
            cfg.ovec_addr_gen_latency = n;
        }
        if let Some(pf) = self.prefetcher {
            cfg.prefetcher = pf;
        }
        if let Some(n) = self.anl_region_bytes {
            cfg.anl_region_bytes = n;
        }
        match &self.fcp {
            None => {}
            Some(None) => cfg.fcp = None,
            Some(Some(spec)) => {
                cfg.fcp = Some(spec.resolve(cfg.fcp.unwrap_or_else(FcpConfig::paper_default)));
            }
        }
        if let Some(npu) = self.npu {
            cfg.npu = npu;
        }
        if let Some(n) = self.npu_mac_latency {
            cfg.npu_mac_latency = n;
        }
        if let Some(n) = self.npu_comm_latency {
            cfg.npu_comm_latency = n;
        }
        if let Some(n) = self.npu_coproc_comm_latency {
            cfg.npu_coproc_comm_latency = n;
        }
        if let Some(b) = self.write_through_regions {
            cfg.write_through_regions = b;
        }
        if let Some(b) = self.intel_lvs {
            cfg.intel_lvs = b;
        }
        match &self.fault_plan {
            None => {}
            Some(None) => cfg.fault_plan = None,
            Some(Some(spec)) => {
                cfg.fault_plan =
                    Some(spec.resolve(cfg.fault_plan.unwrap_or_else(|| FaultPlan::quiet(0))));
            }
        }
        cfg.validate()
            .map_err(|e| ScenarioError::new(join(path, &e.path), e.reason))?;
        Ok(cfg)
    }

    /// Builds the spec that names an exact [`MachineConfig`]: the preset
    /// name when the config is a preset, otherwise `upgraded_baseline`
    /// plus every differing field spelled out.
    pub fn from_config(cfg: &MachineConfig) -> MachineSpec {
        if let Some(name) = cfg.preset_name() {
            return MachineSpec {
                preset: Some(name.to_string()),
                ..MachineSpec::default()
            };
        }
        let base = MachineConfig::upgraded_baseline();
        let level = |b: &tartan_sim::CacheConfig, c: &tartan_sim::CacheConfig| {
            if b == c {
                None
            } else {
                Some(CacheSpec {
                    size_bytes: opt(b.size_bytes != c.size_bytes, c.size_bytes),
                    ways: opt(b.ways != c.ways, c.ways),
                    latency: opt(b.latency != c.latency, c.latency),
                })
            }
        };
        MachineSpec {
            preset: None,
            cores: opt(base.cores != cfg.cores, cfg.cores),
            line_bytes: opt(base.line_bytes != cfg.line_bytes, cfg.line_bytes),
            l1: level(&base.l1, &cfg.l1),
            l2: level(&base.l2, &cfg.l2),
            l3: level(&base.l3, &cfg.l3),
            dram_latency: opt(base.dram_latency != cfg.dram_latency, cfg.dram_latency),
            dram_bytes_per_cycle: opt(
                base.dram_bytes_per_cycle != cfg.dram_bytes_per_cycle,
                cfg.dram_bytes_per_cycle,
            ),
            issue_width: opt(base.issue_width != cfg.issue_width, cfg.issue_width),
            mlp: opt(base.mlp != cfg.mlp, cfg.mlp),
            l1_ports: opt(base.l1_ports != cfg.l1_ports, cfg.l1_ports),
            vector_isa: opt(base.vector_isa != cfg.vector_isa, cfg.vector_isa),
            ovec: opt(base.ovec != cfg.ovec, cfg.ovec),
            ovec_addr_gen_latency: opt(
                base.ovec_addr_gen_latency != cfg.ovec_addr_gen_latency,
                cfg.ovec_addr_gen_latency,
            ),
            prefetcher: opt(base.prefetcher != cfg.prefetcher, cfg.prefetcher),
            anl_region_bytes: opt(
                base.anl_region_bytes != cfg.anl_region_bytes,
                cfg.anl_region_bytes,
            ),
            fcp: if base.fcp == cfg.fcp {
                None
            } else {
                Some(cfg.fcp.map(|f| FcpSpec {
                    region_bytes: Some(f.region_bytes),
                    xor_bits: Some(f.xor_bits),
                    manipulation: Some(f.manipulation),
                }))
            },
            npu: opt(base.npu != cfg.npu, cfg.npu),
            npu_mac_latency: opt(
                base.npu_mac_latency != cfg.npu_mac_latency,
                cfg.npu_mac_latency,
            ),
            npu_comm_latency: opt(
                base.npu_comm_latency != cfg.npu_comm_latency,
                cfg.npu_comm_latency,
            ),
            npu_coproc_comm_latency: opt(
                base.npu_coproc_comm_latency != cfg.npu_coproc_comm_latency,
                cfg.npu_coproc_comm_latency,
            ),
            write_through_regions: opt(
                base.write_through_regions != cfg.write_through_regions,
                cfg.write_through_regions,
            ),
            intel_lvs: opt(base.intel_lvs != cfg.intel_lvs, cfg.intel_lvs),
            fault_plan: if base.fault_plan == cfg.fault_plan {
                None
            } else {
                Some(cfg.fault_plan.map(|p| FaultSpec {
                    seed: Some(p.seed),
                    accel_error_rate: Some(p.accel_error_rate),
                    accel_error_magnitude: Some(p.accel_error_magnitude),
                    accel_bitflip_rate: Some(p.accel_bitflip_rate),
                    accel_fail_rate: Some(p.accel_fail_rate),
                    mem_spike_rate: Some(p.mem_spike_rate),
                    mem_spike_cycles: Some(p.mem_spike_cycles),
                }))
            },
        }
    }
}

fn parse_npu(v: &JsonValue, path: &str) -> Result<NpuMode, ScenarioError> {
    let mut mode: Option<&str> = None;
    let mut pes: Option<u32> = None;
    for (key, value) in obj(v, path)? {
        let p = join(path, key);
        match key.as_str() {
            "mode" => mode = Some(str_of(value, &p)?),
            "pes" => pes = Some(u32_of(value, &p)?),
            _ => return Err(unknown_field(path, key, &["mode", "pes"])),
        }
    }
    let mode = mode
        .ok_or_else(|| ScenarioError::new(join(path, "mode"), "required field is missing"))?;
    match (mode, pes) {
        ("none", None) => Ok(NpuMode::None),
        ("coprocessor", None) => Ok(NpuMode::Coprocessor),
        ("integrated", Some(pes)) => Ok(NpuMode::Integrated { pes }),
        ("integrated", None) => Err(ScenarioError::new(
            join(path, "pes"),
            "required for the integrated mode",
        )),
        ("none" | "coprocessor", Some(_)) => Err(ScenarioError::new(
            join(path, "pes"),
            format!("only valid for the integrated mode (mode is {mode:?})"),
        )),
        _ => Err(ScenarioError::new(
            join(path, "mode"),
            format!("unknown value {mode:?} (expected one of none, integrated, coprocessor)"),
        )),
    }
}

fn npu_to_value(npu: NpuMode) -> JsonValue {
    let mut fields = vec![(
        "mode".to_string(),
        JsonValue::Str(
            match npu {
                NpuMode::None => "none",
                NpuMode::Integrated { .. } => "integrated",
                NpuMode::Coprocessor => "coprocessor",
            }
            .into(),
        ),
    )];
    if let NpuMode::Integrated { pes } = npu {
        fields.push(("pes".into(), num(u64::from(pes))));
    }
    JsonValue::Obj(fields)
}

// ----------------------------------------------------------- SoftwareSpec

/// Partial software description: a preset name plus field overrides.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoftwareSpec {
    /// Starting preset: `legacy` (default), `optimized`, or `approximable`.
    pub preset: Option<String>,
    /// `"scalar"`, `"gather"`, `"ovec"`, or `"racod"`.
    pub vec_method: Option<VecMethod>,
    /// `"brute"`, `"kdtree"`, `"flann"`, or `"vln"`.
    pub nns: Option<NnsKind>,
    /// `"none"`, `"npu"`, or `"software"`.
    pub neural: Option<NeuralExec>,
    /// Bilinear ray-casting refinement.
    pub interpolate_raycast: Option<bool>,
}

impl SoftwareSpec {
    const FIELDS: [&'static str; 5] = [
        "preset",
        "vec_method",
        "nns",
        "neural",
        "interpolate_raycast",
    ];

    /// Parses a software spec from a JSON object.
    pub fn parse(v: &JsonValue, path: &str) -> Result<SoftwareSpec, ScenarioError> {
        let mut spec = SoftwareSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "preset" => spec.preset = Some(str_of(value, &p)?.to_string()),
                "vec_method" => spec.vec_method = Some(keyword(value, &p, &VEC_METHODS)?),
                "nns" => spec.nns = Some(keyword(value, &p, &NNS_KINDS)?),
                "neural" => spec.neural = Some(keyword(value, &p, &NEURAL_EXECS)?),
                "interpolate_raycast" => {
                    spec.interpolate_raycast = Some(bool_of(value, &p)?);
                }
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    /// Renders the spec.
    pub fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(p) = &self.preset {
            fields.push(("preset".into(), JsonValue::Str(p.clone())));
        }
        if let Some(m) = self.vec_method {
            fields.push((
                "vec_method".into(),
                JsonValue::Str(keyword_name(m, &VEC_METHODS).into()),
            ));
        }
        if let Some(n) = self.nns {
            fields.push(("nns".into(), JsonValue::Str(keyword_name(n, &NNS_KINDS).into())));
        }
        if let Some(n) = self.neural {
            fields.push((
                "neural".into(),
                JsonValue::Str(keyword_name(n, &NEURAL_EXECS).into()),
            ));
        }
        if let Some(b) = self.interpolate_raycast {
            fields.push(("interpolate_raycast".into(), JsonValue::Bool(b)));
        }
        JsonValue::Obj(fields)
    }

    /// Field-wise merge; `over`'s fields win.
    pub fn merged(&self, over: &SoftwareSpec) -> SoftwareSpec {
        SoftwareSpec {
            preset: merge_opt(&self.preset, &over.preset),
            vec_method: over.vec_method.or(self.vec_method),
            nns: over.nns.or(self.nns),
            neural: over.neural.or(self.neural),
            interpolate_raycast: over.interpolate_raycast.or(self.interpolate_raycast),
        }
    }

    /// Resolves into a [`SoftwareConfig`]: preset first (default
    /// `legacy`), then overrides.
    pub fn resolve(&self, path: &str) -> Result<SoftwareConfig, ScenarioError> {
        let mut sw = match &self.preset {
            None => SoftwareConfig::legacy(),
            Some(name) => SoftwareConfig::from_preset(name).ok_or_else(|| {
                ScenarioError::new(
                    join(path, "preset"),
                    format!(
                        "unknown preset {name:?} (expected one of {})",
                        SoftwareConfig::PRESETS.join(", ")
                    ),
                )
            })?,
        };
        if let Some(m) = self.vec_method {
            sw.vec_method = m;
        }
        if let Some(n) = self.nns {
            sw.nns = n;
        }
        if let Some(n) = self.neural {
            sw.neural = n;
        }
        if let Some(b) = self.interpolate_raycast {
            sw.interpolate_raycast = b;
        }
        Ok(sw)
    }

    /// Builds the spec that names an exact [`SoftwareConfig`].
    pub fn from_config(sw: &SoftwareConfig) -> SoftwareSpec {
        if let Some(name) = sw.preset_name() {
            return SoftwareSpec {
                preset: Some(name.to_string()),
                ..SoftwareSpec::default()
            };
        }
        let base = SoftwareConfig::legacy();
        SoftwareSpec {
            preset: None,
            vec_method: opt(base.vec_method != sw.vec_method, sw.vec_method),
            nns: opt(base.nns != sw.nns, sw.nns),
            neural: opt(base.neural != sw.neural, sw.neural),
            interpolate_raycast: opt(
                base.interpolate_raycast != sw.interpolate_raycast,
                sw.interpolate_raycast,
            ),
        }
    }
}

// ------------------------------------------------------------- ParamsSpec

/// One workload-scale adjustment: set or multiply a named [`Scale`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleAdjust {
    /// Scale field name (e.g. `map_points`).
    pub field: String,
    /// The operation.
    pub op: AdjustOp,
}

/// How a [`ScaleAdjust`] changes the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustOp {
    /// Replace the value.
    Set(u64),
    /// Multiply the value.
    Mul(u64),
}

/// The adjustable [`Scale`] fields (tuple-valued fields are not exposed).
pub const SCALE_FIELDS: [&str; 14] = [
    "grid2",
    "particles",
    "rays",
    "rrt_nodes",
    "map_points",
    "source_points",
    "image_side",
    "pca_k",
    "train_epochs",
    "heuristic_samples",
    "theta_bins",
    "depth_side",
    "cnn_input",
    "delibot_grid",
];

fn scale_field_mut<'a>(scale: &'a mut Scale, name: &str) -> Option<&'a mut usize> {
    match name {
        "grid2" => Some(&mut scale.grid2),
        "particles" => Some(&mut scale.particles),
        "rays" => Some(&mut scale.rays),
        "rrt_nodes" => Some(&mut scale.rrt_nodes),
        "map_points" => Some(&mut scale.map_points),
        "source_points" => Some(&mut scale.source_points),
        "image_side" => Some(&mut scale.image_side),
        "pca_k" => Some(&mut scale.pca_k),
        "train_epochs" => Some(&mut scale.train_epochs),
        "heuristic_samples" => Some(&mut scale.heuristic_samples),
        "theta_bins" => Some(&mut scale.theta_bins),
        "depth_side" => Some(&mut scale.depth_side),
        "cnn_input" => Some(&mut scale.cnn_input),
        "delibot_grid" => Some(&mut scale.delibot_grid),
        _ => None,
    }
}

impl ScaleAdjust {
    fn parse(v: &JsonValue, path: &str) -> Result<ScaleAdjust, ScenarioError> {
        let mut field: Option<String> = None;
        let mut op: Option<AdjustOp> = None;
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "field" => field = Some(str_of(value, &p)?.to_string()),
                "set" | "mul" => {
                    if op.is_some() {
                        return Err(ScenarioError::new(
                            p,
                            "exactly one of `set` and `mul` is allowed",
                        ));
                    }
                    let n = u64_of(value, &p)?;
                    op = Some(if key == "set" {
                        AdjustOp::Set(n)
                    } else {
                        AdjustOp::Mul(n)
                    });
                }
                _ => return Err(unknown_field(path, key, &["field", "set", "mul"])),
            }
        }
        let field = field
            .ok_or_else(|| ScenarioError::new(join(path, "field"), "required field is missing"))?;
        if !SCALE_FIELDS.contains(&field.as_str()) {
            return Err(ScenarioError::new(
                join(path, "field"),
                format!(
                    "unknown scale field {field:?} (known fields: {})",
                    SCALE_FIELDS.join(", ")
                ),
            ));
        }
        let op = op.ok_or_else(|| {
            ScenarioError::new(path, "one of `set` and `mul` is required")
        })?;
        Ok(ScaleAdjust { field, op })
    }

    fn to_value(&self) -> JsonValue {
        let mut fields = vec![("field".to_string(), JsonValue::Str(self.field.clone()))];
        match self.op {
            AdjustOp::Set(n) => fields.push(("set".into(), num(n))),
            AdjustOp::Mul(n) => fields.push(("mul".into(), num(n))),
        }
        JsonValue::Obj(fields)
    }

    /// Applies the adjustment to a scale.
    pub fn apply(&self, scale: &mut Scale) {
        let slot = scale_field_mut(scale, &self.field)
            .expect("field validity is checked at parse time");
        match self.op {
            AdjustOp::Set(n) => *slot = n as usize,
            AdjustOp::Mul(n) => *slot *= n as usize,
        }
    }
}

/// Run parameters: workload scale, pipeline steps, and seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamsSpec {
    /// Scale preset: `small` (default) or `paper`.
    pub scale: Option<String>,
    /// Pipeline periods per job.
    pub steps: Option<u64>,
    /// Environment seed.
    pub seed: Option<u64>,
    /// Scale adjustments, applied in order after the preset (and equally
    /// on top of a caller-supplied scale — see
    /// [`ParamsSpec::apply_adjusts`]).
    pub adjust: Vec<ScaleAdjust>,
}

impl ParamsSpec {
    const FIELDS: [&'static str; 4] = ["scale", "steps", "seed", "adjust"];

    /// Parses run parameters from a JSON object.
    pub fn parse(v: &JsonValue, path: &str) -> Result<ParamsSpec, ScenarioError> {
        let mut spec = ParamsSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "scale" => {
                    let name = str_of(value, &p)?;
                    if Scale::from_preset(name).is_none() {
                        return Err(ScenarioError::new(
                            p,
                            format!(
                                "unknown scale preset {name:?} (expected one of {})",
                                Scale::PRESETS.join(", ")
                            ),
                        ));
                    }
                    spec.scale = Some(name.to_string());
                }
                "steps" => spec.steps = Some(u64_of(value, &p)?),
                "seed" => spec.seed = Some(u64_of(value, &p)?),
                "adjust" => {
                    for (i, item) in arr(value, &p)?.iter().enumerate() {
                        spec.adjust.push(ScaleAdjust::parse(item, &format!("{p}[{i}]"))?);
                    }
                }
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    /// Renders the parameters.
    pub fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(s) = &self.scale {
            fields.push(("scale".into(), JsonValue::Str(s.clone())));
        }
        if let Some(n) = self.steps {
            fields.push(("steps".into(), num(n)));
        }
        if let Some(n) = self.seed {
            fields.push(("seed".into(), num(n)));
        }
        if !self.adjust.is_empty() {
            fields.push((
                "adjust".into(),
                JsonValue::Arr(self.adjust.iter().map(ScaleAdjust::to_value).collect()),
            ));
        }
        JsonValue::Obj(fields)
    }

    /// Applies only the adjustment list to an existing scale — this is how
    /// figure harnesses honor a caller's quick/paper scale while still
    /// taking the study-specific sizing (e.g. Fig. 10's `map_points` × 20)
    /// from the manifest.
    pub fn apply_adjusts(&self, scale: &mut Scale) {
        for adj in &self.adjust {
            adj.apply(scale);
        }
    }

    /// Builds the full stand-alone scale: preset (default `small`) plus
    /// adjustments.
    pub fn base_scale(&self) -> Scale {
        let mut scale = self
            .scale
            .as_deref()
            .and_then(Scale::from_preset)
            .unwrap_or_else(Scale::small);
        self.apply_adjusts(&mut scale);
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_telemetry::json::parse;

    fn mspec(doc: &str) -> Result<MachineSpec, ScenarioError> {
        MachineSpec::parse(&parse(doc).unwrap(), "machine")
    }

    #[test]
    fn machine_spec_resolves_presets_with_overrides() {
        let spec = mspec(r#"{"preset": "tartan", "anl_region_bytes": 2048, "npu": {"mode": "integrated", "pes": 8}}"#)
            .unwrap();
        let cfg = spec.resolve("machine").unwrap();
        let mut want = MachineConfig::tartan();
        want.anl_region_bytes = 2048;
        want.npu = NpuMode::Integrated { pes: 8 };
        assert_eq!(cfg, want);
    }

    #[test]
    fn empty_machine_spec_is_the_upgraded_baseline() {
        let cfg = mspec("{}").unwrap().resolve("machine").unwrap();
        assert_eq!(cfg, MachineConfig::upgraded_baseline());
    }

    #[test]
    fn explicit_null_disables_fcp() {
        let spec = mspec(r#"{"preset": "tartan", "fcp": null}"#).unwrap();
        let cfg = spec.resolve("machine").unwrap();
        assert_eq!(cfg.fcp, None);
        // And omitting it inherits the preset's FCP.
        let spec = mspec(r#"{"preset": "tartan"}"#).unwrap();
        assert!(spec.resolve("machine").unwrap().fcp.is_some());
        // A partial FCP object merges over the paper default.
        let spec = mspec(r#"{"preset": "tartan", "fcp": {"xor_bits": 3}}"#).unwrap();
        let fcp = spec.resolve("machine").unwrap().fcp.unwrap();
        assert_eq!(fcp.xor_bits, 3);
        assert_eq!(fcp.region_bytes, FcpConfig::paper_default().region_bytes);
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let err = mspec(r#"{"linebytes": 32}"#).unwrap_err();
        assert_eq!(err.path, "machine.linebytes");
        assert!(err.reason.contains("unknown field"), "{err}");
        assert!(err.reason.contains("line_bytes"), "lists known fields: {err}");

        let err = mspec(r#"{"l2": {"sets": 4}}"#).unwrap_err();
        assert_eq!(err.path, "machine.l2.sets");

        let err = mspec(r#"{"prefetcher": "stride"}"#).unwrap_err();
        assert_eq!(err.path, "machine.prefetcher");
        assert!(err.reason.contains("anl"), "{err}");
    }

    #[test]
    fn validation_errors_carry_the_scenario_path() {
        let spec = mspec(r#"{"l2": {"ways": 0}}"#).unwrap();
        let err = spec.resolve("groups[3].machine").unwrap_err();
        assert_eq!(err.path, "groups[3].machine.l2.ways");
        assert_eq!(err.to_string(), "groups[3].machine.l2.ways: must be at least 1");
    }

    #[test]
    fn merge_is_field_wise_and_later_wins() {
        let base = mspec(r#"{"preset": "tartan", "mlp": 8, "l2": {"ways": 4}}"#).unwrap();
        let over = mspec(r#"{"mlp": 2, "l2": {"latency": 20}}"#).unwrap();
        let merged = base.merged(&over);
        assert_eq!(merged.preset.as_deref(), Some("tartan"));
        assert_eq!(merged.mlp, Some(2));
        let l2 = merged.l2.unwrap();
        assert_eq!((l2.ways, l2.latency), (Some(4), Some(20)));
        // An explicit null on the override side wins over a base enable.
        let base = mspec(r#"{"fcp": {"xor_bits": 3}}"#).unwrap();
        let over = mspec(r#"{"fcp": null}"#).unwrap();
        assert_eq!(base.merged(&over).fcp, Some(None));
    }

    #[test]
    fn npu_spellings_are_strict() {
        assert_eq!(
            mspec(r#"{"npu": {"mode": "none"}}"#).unwrap().npu,
            Some(NpuMode::None)
        );
        assert_eq!(
            mspec(r#"{"npu": {"mode": "coprocessor"}}"#).unwrap().npu,
            Some(NpuMode::Coprocessor)
        );
        let err = mspec(r#"{"npu": {"mode": "integrated"}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.pes");
        let err = mspec(r#"{"npu": {"mode": "none", "pes": 4}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.pes");
        let err = mspec(r#"{"npu": {"mode": "quantum"}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.mode");
    }

    #[test]
    fn from_config_round_trips_presets_and_customs() {
        for name in MachineConfig::PRESETS {
            let cfg = MachineConfig::from_preset(name).unwrap();
            let spec = MachineSpec::from_config(&cfg);
            assert_eq!(spec.preset.as_deref(), Some(name));
            assert_eq!(spec.resolve("machine").unwrap(), cfg);
        }
        let mut custom = MachineConfig::tartan();
        custom.anl_region_bytes = 4096;
        custom.fault_plan = Some(FaultPlan::quiet(7).with_mem_spikes(0.5, 100));
        let spec = MachineSpec::from_config(&custom);
        assert_eq!(spec.resolve("machine").unwrap(), custom);
        // And the spec survives its own JSON rendering.
        let reparsed = MachineSpec::parse(&parse(&spec.to_value().render()).unwrap(), "machine")
            .unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn software_spec_resolves_and_round_trips() {
        let v = parse(r#"{"preset": "optimized", "nns": "kdtree"}"#).unwrap();
        let spec = SoftwareSpec::parse(&v, "software").unwrap();
        let sw = spec.resolve("software").unwrap();
        assert_eq!(sw.vec_method, VecMethod::Ovec);
        assert_eq!(sw.nns, NnsKind::KdTree);
        for name in SoftwareConfig::PRESETS {
            let sw = SoftwareConfig::from_preset(name).unwrap();
            assert_eq!(SoftwareSpec::from_config(&sw).resolve("s").unwrap(), sw);
        }
        let mut custom = SoftwareConfig::legacy();
        custom.interpolate_raycast = true;
        custom.nns = NnsKind::Flann;
        let spec = SoftwareSpec::from_config(&custom);
        assert_eq!(spec.resolve("s").unwrap(), custom);
        let err = SoftwareSpec::parse(&parse(r#"{"nns": "octree"}"#).unwrap(), "software")
            .unwrap_err();
        assert_eq!(err.path, "software.nns");
    }

    #[test]
    fn params_adjusts_apply_in_order() {
        let v = parse(
            r#"{"scale": "small", "steps": 3, "adjust": [
                {"field": "map_points", "mul": 20},
                {"field": "rays", "set": 4}
            ]}"#,
        )
        .unwrap();
        let spec = ParamsSpec::parse(&v, "params").unwrap();
        let scale = spec.base_scale();
        assert_eq!(scale.map_points, Scale::small().map_points * 20);
        assert_eq!(scale.rays, 4);
        // apply_adjusts honors a caller-supplied scale.
        let mut paper = Scale::paper();
        spec.apply_adjusts(&mut paper);
        assert_eq!(paper.map_points, Scale::paper().map_points * 20);

        let err = ParamsSpec::parse(
            &parse(r#"{"adjust": [{"field": "warp", "set": 1}]}"#).unwrap(),
            "params",
        )
        .unwrap_err();
        assert_eq!(err.path, "params.adjust[0].field");
        let err = ParamsSpec::parse(&parse(r#"{"scale": "huge"}"#).unwrap(), "params")
            .unwrap_err();
        assert_eq!(err.path, "params.scale");
        let err = ParamsSpec::parse(
            &parse(r#"{"adjust": [{"field": "rays", "set": 1, "mul": 2}]}"#).unwrap(),
            "params",
        )
        .unwrap_err();
        assert!(err.reason.contains("exactly one"), "{err}");
    }
}
