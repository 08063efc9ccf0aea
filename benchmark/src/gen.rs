//! Seeded inputs.  Everything the program under test receives — array
//! contents, session ages and order, arrival schedules — is derived here from
//! the `--seed`, so one seed always produces the same inputs.

/// splitmix64: small, fast and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (`seed`, `stream`) pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Seed of the fixed element order of the quicksort input.
const ORDER_SEED: u64 = 0x5eed_0f0d;

/// Input sizes.  [`Size::FULL`] is the benchmark; [`Size::TEST`] keeps the
/// same shapes small enough for a debug-build smoke test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Quicksort array length (512 ints = 2 KiB, 4x the default 512 B L1).
    pub quicksort_len: usize,
    /// Matrix order of the float matmul (16x16: 3 KiB over three matrices,
    /// 6x L1, strided column walks).
    pub matmul_n: usize,
    /// Sessions of `gui_step` and `gui_refresh`.
    pub gui_sessions: usize,
    /// GUI sessions start spread evenly over `0..gui_max_age` cycles, so
    /// they sit at different program phases.
    pub gui_max_age: u64,
    /// The three `time_travel` session ages (named 1k, 4k and 16k).
    pub travel_ages: [u64; 3],
    /// `time_travel` sessions at each age.
    pub travel_per_age: usize,
    /// Rounds per run, each on a fresh server.
    pub rounds: usize,
}

impl Size {
    pub const FULL: Size = Size {
        quicksort_len: 512,
        matmul_n: 16,
        gui_sessions: 32,
        gui_max_age: 2_000,
        travel_ages: [1_000, 4_000, 16_000],
        travel_per_age: 4,
        rounds: 20,
    };

    pub const TEST: Size = Size {
        quicksort_len: 24,
        matmul_n: 3,
        gui_sessions: 4,
        gui_max_age: 20,
        travel_ages: [10, 20, 40],
        travel_per_age: 1,
        rounds: 2,
    };
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub quicksort: Vec<i32>,
    pub matmul_a: Vec<i32>,
    pub matmul_b: Vec<i32>,
    pub matmul_n: usize,
    /// Start cycle of each GUI session, in seeded order.
    pub gui_ages: Vec<u64>,
    /// Age of each `time_travel` session: every age in
    /// [`Size::travel_ages`] `travel_per_age` times, in seeded order, each
    /// nudged by a few seeded cycles.
    pub travel_ages: Vec<u64>,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Size) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        // Quicksort's control flow depends only on the relative order of the
        // elements.  The order is one fixed permutation and the seed draws
        // the distinct values, so every seed sorts different data with the
        // same simulated work: one unlucky pivot would otherwise move the
        // cost of a cycle by half.  Values stay below 10,000 so the 32-bit
        // checksum cannot overflow.
        let n = size.quicksort_len;
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut Rng::new(ORDER_SEED, 0));
        // The last element is the first pivot: make it the median, so the
        // first partition is the even, hard-to-predict split of typical data.
        let median = order.iter().position(|&rank| rank == n / 2).expect("a permutation");
        order.swap(median, n - 1);
        let mut pool: Vec<i32> = (0..10_000).collect();
        let len = pool.len();
        for i in 0..n {
            pool.swap(i, i + rng.below((len - i) as u64) as usize);
        }
        let mut values = pool[..n].to_vec();
        values.sort_unstable();
        let quicksort = order.iter().map(|&rank| values[rank]).collect();
        // Small integers keep every float sum exact in f32.
        let cells = size.matmul_n * size.matmul_n;
        let matmul_a = (0..cells).map(|_| rng.below(8) as i32).collect();
        let matmul_b = (0..cells).map(|_| rng.below(8) as i32).collect();
        let spacing = size.gui_max_age / size.gui_sessions as u64;
        let mut gui_ages: Vec<u64> = (0..size.gui_sessions as u64)
            .map(|k| k * spacing + rng.below(spacing / 4 + 1))
            .collect();
        shuffle(&mut gui_ages, &mut rng);
        let mut travel_ages: Vec<u64> = size
            .travel_ages
            .iter()
            .flat_map(|&age| std::iter::repeat_n(age, size.travel_per_age))
            .map(|age| age + rng.below(age / 64 + 1))
            .collect();
        shuffle(&mut travel_ages, &mut rng);
        Inputs { quicksort, matmul_a, matmul_b, matmul_n: size.matmul_n, gui_ages, travel_ages }
    }

    /// Recursive quicksort with the array as an initialised global; `main`
    /// returns a position-weighted checksum of the sorted array.
    pub fn quicksort_c(&self) -> String {
        let n = self.quicksort.len();
        format!(
            "int data[{n}] = {{{values}}};

void swap(int a[], int i, int j) {{
    int t = a[i];
    a[i] = a[j];
    a[j] = t;
}}

int partition(int a[], int lo, int hi) {{
    int pivot = a[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {{
        if (a[j] <= pivot) {{
            i++;
            swap(a, i, j);
        }}
    }}
    swap(a, i + 1, hi);
    return i + 1;
}}

void quicksort(int a[], int lo, int hi) {{
    if (lo < hi) {{
        int p = partition(a, lo, hi);
        quicksort(a, lo, p - 1);
        quicksort(a, p + 1, hi);
    }}
}}

int main(void) {{
    quicksort(data, 0, {last});
    int sum = 0;
    for (int i = 0; i < {n}; i++) {{
        sum += data[i] * (i + 1);
    }}
    return sum;
}}
",
            values = join(&self.quicksort, ""),
            last = n - 1,
        )
    }

    /// The checksum `quicksort_c` must return, computed on the host.
    pub fn quicksort_checksum(&self) -> i64 {
        let mut sorted = self.quicksort.clone();
        sorted.sort_unstable();
        let sum = sorted
            .iter()
            .enumerate()
            .fold(0i32, |acc, (i, &v)| acc.wrapping_add(v * (i as i32 + 1)));
        i64::from(sum)
    }

    /// Float matrix product `c = a * b`; `main` returns the sum of `c`.
    pub fn matmul_c(&self) -> String {
        let n = self.matmul_n;
        format!(
            "float a[{cells}] = {{{a}}};
float b[{cells}] = {{{b}}};
float c[{cells}];

int main(void) {{
    for (int i = 0; i < {n}; i++) {{
        for (int j = 0; j < {n}; j++) {{
            float acc = 0.0;
            for (int k = 0; k < {n}; k++) {{
                acc = acc + a[i * {n} + k] * b[k * {n} + j];
            }}
            c[i * {n} + j] = acc;
        }}
    }}
    float total = 0.0;
    for (int i = 0; i < {cells}; i++) {{
        total = total + c[i];
    }}
    return (int)total;
}}
",
            cells = n * n,
            a = join(&self.matmul_a, ".0"),
            b = join(&self.matmul_b, ".0"),
        )
    }

    /// The sum `matmul_c` must return (exact: every partial sum is a small
    /// integer, so f32 arithmetic on the simulated core loses nothing).
    pub fn matmul_checksum(&self) -> i64 {
        let n = self.matmul_n;
        let (a, b) = (&self.matmul_a, &self.matmul_b);
        (0..n)
            .flat_map(|i| (0..n).flat_map(move |j| (0..n).map(move |k| (i, j, k))))
            .map(|(i, j, k)| i64::from(a[i * n + k] * b[k * n + j]))
            .sum()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Deal sessions to connections so that each gets an equal share of every
/// age, then put each connection's sessions in a seeded order.  Connections
/// cycle through their order, so every session sees the same load and
/// connection `t` alone touches its sessions.
pub fn deal_sessions(ages: &[u64], connections: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut by_age: Vec<usize> = (0..ages.len()).collect();
    by_age.sort_by_key(|&i| (ages[i], i));
    let mut dealt = vec![Vec::new(); connections];
    for (k, session) in by_age.into_iter().enumerate() {
        dealt[k % connections].push(session);
    }
    for order in &mut dealt {
        shuffle(order, rng);
    }
    dealt
}

fn join(values: &[i32], suffix: &str) -> String {
    values.iter().map(|v| format!("{v}{suffix}")).collect::<Vec<_>>().join(", ")
}

/// One open-loop operation: when it is due (seconds after the window
/// starts) and which session it touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub session: usize,
}

/// Poisson arrivals at `rate` per second over `duration_s`, cycling through
/// `order` from a seeded starting point.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    duration_s: f64,
    order: &[usize],
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize + 1);
    let start = rng.below(order.len() as u64) as usize;
    let mut due_s = rng.exp_gap(rate);
    while due_s < duration_s {
        out.push(Arrival { due_s, session: order[(start + out.len()) % order.len()] });
        due_s += rng.exp_gap(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_schedules() {
        for size in [Size::FULL, Size::TEST] {
            assert_eq!(Inputs::generate(7, &size), Inputs::generate(7, &size));
            assert_ne!(Inputs::generate(7, &size), Inputs::generate(8, &size));
            assert_eq!(
                Inputs::generate(7, &size).quicksort_c(),
                Inputs::generate(7, &size).quicksort_c()
            );
        }
        let schedule = |seed| poisson_schedule(&mut Rng::new(seed, 3), 2_000.0, 1.0, &[0, 2, 4]);
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn seeds_change_values_but_not_quicksort_order() {
        let rank = |v: &[i32]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by_key(|&i| v[i]);
            idx
        };
        let (a, b) = (Inputs::generate(1, &Size::FULL), Inputs::generate(2, &Size::FULL));
        assert_ne!(a.quicksort, b.quicksort);
        assert_eq!(rank(&a.quicksort), rank(&b.quicksort));
        let mut distinct = a.quicksort.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), Size::FULL.quicksort_len);
        assert!(a.quicksort.iter().all(|&v| (0..10_000).contains(&v)));
    }

    #[test]
    fn schedules_hold_their_rate_and_sessions() {
        let arrivals = poisson_schedule(&mut Rng::new(1, 0), 2_000.0, 5.0, &[1, 3]);
        let n = arrivals.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals for an expected 10,000");
        assert!(arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(arrivals.iter().all(|a| a.session == 1 || a.session == 3));
        assert!(arrivals.windows(2).all(|w| w[0].session != w[1].session));
    }

    #[test]
    fn connections_get_equal_shares_of_every_age() {
        let inputs = Inputs::generate(5, &Size::FULL);
        let dealt = deal_sessions(&inputs.travel_ages, 2, &mut Rng::new(5, 2));
        for base in Size::FULL.travel_ages {
            for order in &dealt {
                assert_eq!(order.iter().filter(|&&i| inputs.travel_ages[i] / base == 1).count(), 2);
            }
        }
        let mut all: Vec<usize> = dealt.concat();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn travel_ages_cover_every_age_class() {
        let inputs = Inputs::generate(3, &Size::FULL);
        assert_eq!(inputs.travel_ages.len(), 12);
        for base in Size::FULL.travel_ages {
            let near = inputs.travel_ages.iter().filter(|&&a| a >= base && a <= base + base / 64);
            assert_eq!(near.count(), 4);
        }
    }

    #[test]
    fn checksums_match_hand_computation() {
        let inputs = Inputs {
            quicksort: vec![3, 1, 2],
            matmul_a: vec![1, 2, 3, 4],
            matmul_b: vec![5, 6, 7, 0],
            matmul_n: 2,
            gui_ages: vec![],
            travel_ages: vec![],
        };
        assert_eq!(inputs.quicksort_checksum(), 1 + 2 * 2 + 3 * 3);
        // [[19, 6], [43, 18]]
        assert_eq!(inputs.matmul_checksum(), 19 + 6 + 43 + 18);
    }
}
