//! End-to-end tests of the C tool-chain: compile at every optimization level,
//! assemble, simulate, and compare against host-computed expectations.

use riscv_superscalar_sim::prelude::*;

const ALL_LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

fn run_c(source: &str, opt: OptLevel) -> Simulator {
    let output = compile(source, opt).unwrap_or_else(|e| panic!("compile failed: {e:?}"));
    let mut sim = Simulator::from_assembly(&output.assembly, &ArchitectureConfig::default())
        .unwrap_or_else(|e| panic!("assembly rejected at {opt:?}: {e}\n{}", output.assembly));
    let result = sim.run(10_000_000).expect("runs");
    assert!(!matches!(result.halt, HaltReason::MaxCyclesReached), "C program hung at {opt:?}");
    sim
}

fn returns(source: &str) -> Vec<i64> {
    ALL_LEVELS.iter().map(|opt| run_c(source, *opt).int_register(10)).collect()
}

fn assert_all_levels(source: &str, expected: i64) {
    let results = returns(source);
    for (opt, result) in ALL_LEVELS.iter().zip(&results) {
        assert_eq!(*result, expected, "wrong result at {opt:?}");
    }
}

#[test]
fn negative_division_by_powers_of_two_truncates_toward_zero() {
    // Strength reduction must not change results: C's `/` and `%` truncate
    // toward zero, while bare srai/andi round toward -inf / mask.
    assert_all_levels(
        "int main(void) { int x = -7; return x / 2 * 10000 + x % 8 * 100 + x / 1 + 100 / 4; }",
        -3 * 10000 + -7 * 100 + -7 + 25,
    );
}

#[test]
fn arithmetic_and_precedence() {
    assert_all_levels("int main(void) { return (2 + 3) * 4 - 10 / 2; }", 15);
    assert_all_levels(
        "int main(void) { int x = 10; return x % 3 + (x << 2) + (x >> 1); }",
        1 + 40 + 5,
    );
    assert_all_levels(
        "int main(void) { int x = 12; int y = 10; return (x & y) | (x ^ y); }",
        (12 & 10) | (12 ^ 10),
    );
    assert_all_levels("int main(void) { return -5 + +7; }", 2);
}

#[test]
fn control_flow_and_loops() {
    assert_all_levels(
        "int main(void) { int s = 0; for (int i = 1; i <= 100; i++) s += i; return s; }",
        5050,
    );
    assert_all_levels(
        "int main(void) { int n = 0; int i = 0; while (i < 50) { if (i % 3 == 0) n++; i++; } return n; }",
        17,
    );
    assert_all_levels(
        "int main(void) { int s = 0; for (int i = 0; i < 20; i++) { if (i == 5) continue; if (i == 15) break; s += i; } return s; }",
        (0..15).filter(|i| *i != 5).sum::<i64>(),
    );
    assert_all_levels(
        "int main(void) { int a = 3; int b = 8; if (a < b && b < 10) return 1; else return 2; }",
        1,
    );
    assert_all_levels("int main(void) { int a = 3; if (a > 5 || a == 3) return 7; return 0; }", 7);
}

#[test]
fn functions_and_recursion() {
    assert_all_levels(
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         int main(void) { return fib(12); }",
        144,
    );
    assert_all_levels(
        "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
         int main(void) { return fact(7); }",
        5040,
    );
    assert_all_levels(
        "int max3(int a, int b, int c) { if (a >= b && a >= c) return a; if (b >= c) return b; return c; }
         int main(void) { return max3(3, 9, 6) + max3(8, 1, 2) + max3(4, 4, 7); }",
        9 + 8 + 7,
    );
}

#[test]
fn arrays_and_globals() {
    assert_all_levels(
        "int data[8] = {5, 3, 8, 1, 9, 2, 7, 4};
         int main(void) {
             int best = data[0];
             for (int i = 1; i < 8; i++) {
                 if (data[i] > best) best = data[i];
             }
             return best;
         }",
        9,
    );
    assert_all_levels(
        "int hist[10];
         int main(void) {
             for (int i = 0; i < 30; i++) { hist[i % 10] += 1; }
             int s = 0;
             for (int i = 0; i < 10; i++) { s += hist[i] * i; }
             return s;
         }",
        (0..10).map(|i| 3 * i).sum::<i64>(),
    );
    assert_all_levels(
        "char text[6] = {'h', 'e', 'l', 'l', 'o', 0};
         int main(void) {
             int n = 0;
             for (int i = 0; text[i] != 0; i++) { n += text[i]; }
             return n;
         }",
        "hello".bytes().map(|b| b as i64).sum::<i64>(),
    );
}

#[test]
fn floating_point_kernels() {
    // Dot product of two float vectors, result converted to int.
    let source = "
float a[4] = {1.5, 2.0, 0.5, 4.0};
float b[4] = {2.0, 3.0, 8.0, 0.25};
int main(void) {
    float sum = 0.0;
    for (int i = 0; i < 4; i++) {
        sum = sum + a[i] * b[i];
    }
    return (int)(sum * 10.0);
}
";
    // 3 + 6 + 4 + 1 = 14 -> 140
    assert_all_levels(source, 140);

    let source = "
int main(void) {
    float x = 0.0;
    for (int i = 1; i <= 10; i++) {
        x = x + (float)i / 2.0;
    }
    return (int)x;
}
";
    assert_all_levels(source, 27);
}

#[test]
fn pointer_parameters_and_in_place_updates() {
    let source = "
int buffer[6] = {1, 2, 3, 4, 5, 6};
void scale(int v[], int n, int factor) {
    for (int i = 0; i < n; i++) {
        v[i] = v[i] * factor;
    }
}
int sum(int v[], int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += v[i];
    return s;
}
int main(void) {
    scale(buffer, 6, 3);
    return sum(buffer, 6);
}
";
    assert_all_levels(source, 63);
}

#[test]
fn extern_arrays_come_from_memory_settings() {
    let source = "
extern int samples[];
int main(void) {
    int acc = 0;
    for (int i = 0; i < 10; i++) {
        acc += samples[i];
    }
    return acc;
}
";
    for opt in ALL_LEVELS {
        let output = compile(source, opt).unwrap();
        let mut memory = MemorySettings::new();
        memory.add(MemoryArray {
            name: "samples".into(),
            element: ScalarType::Word,
            alignment: 16,
            fill: ArrayFill::Values((1..=10).map(|v| v as f64).collect()),
        });
        let mut sim = Simulator::from_assembly_with_memory(
            &output.assembly,
            &ArchitectureConfig::default(),
            memory,
        )
        .expect("assembles");
        sim.run(1_000_000).unwrap();
        assert_eq!(sim.int_register(10), 55, "extern array sum wrong at {opt:?}");
    }
}

#[test]
fn quicksort_workload_sorts_and_checksums() {
    // Recursive quicksort over a 32-element extern array, the C program the
    // paper validates the simulator with (§IV); main returns the checksum
    // sum(a[i] * (i + 1)) of the sorted array.
    const QUICKSORT_C: &str = "
extern int data[];

void swap(int a[], int i, int j) {
    int t = a[i];
    a[i] = a[j];
    a[j] = t;
}

int partition(int a[], int lo, int hi) {
    int pivot = a[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (a[j] <= pivot) {
            i++;
            swap(a, i, j);
        }
    }
    swap(a, i + 1, hi);
    return i + 1;
}

void quicksort(int a[], int lo, int hi) {
    if (lo < hi) {
        int p = partition(a, lo, hi);
        quicksort(a, lo, p - 1);
        quicksort(a, p + 1, hi);
    }
}

int main(void) {
    quicksort(data, 0, 31);
    int sum = 0;
    for (int i = 0; i < 32; i++) {
        sum += data[i] * (i + 1);
    }
    return sum;
}
";
    let input: [i64; 32] = [
        93, 7, 55, 12, 88, 3, 41, 67, 25, 99, 4, 73, 18, 62, 31, 80, 9, 46, 58, 2, 77, 36, 14, 91,
        28, 65, 50, 6, 84, 21, 70, 39,
    ];
    let mut memory = MemorySettings::new();
    memory.add(MemoryArray {
        name: "data".into(),
        element: ScalarType::Word,
        alignment: 16,
        fill: ArrayFill::Values(input.iter().map(|&v| v as f64).collect()),
    });
    let output = compile(QUICKSORT_C, OptLevel::O2).expect("quicksort compiles");
    let mut sim = Simulator::from_assembly_with_memory(
        &output.assembly,
        &ArchitectureConfig::default(),
        memory,
    )
    .expect("assembles");
    sim.run(50_000_000).unwrap();
    let mut sorted = input;
    sorted.sort_unstable();
    let expected: i64 = sorted.iter().enumerate().map(|(i, v)| v * (i as i64 + 1)).sum();
    assert_eq!(sim.int_register(10), expected);
}

#[test]
fn optimization_levels_reduce_work_monotonically_in_practice() {
    // Not a hard guarantee in general, but for this kernel each level should
    // commit no more instructions than the previous one.
    let source = "
int main(void) {
    int s = 0;
    for (int i = 0; i < 64; i++) {
        s += i * 4 + 16 / 4 - 3 * 1;
    }
    return s;
}
";
    let committed: Vec<u64> =
        ALL_LEVELS.iter().map(|opt| run_c(source, *opt).statistics().committed).collect();
    // Exact monotonicity between adjacent levels is not guaranteed (register
    // allocation trades loads for moves), but no level may be worse than -O0
    // and -O3 must clearly beat it.
    for (opt, count) in ALL_LEVELS.iter().zip(&committed).skip(1) {
        assert!(
            *count <= committed[0],
            "{opt:?} committed more instructions than -O0: {committed:?}"
        );
    }
    assert!(committed[3] < committed[0], "-O3 should clearly beat -O0 ({committed:?})");
}

#[test]
fn compile_errors_are_reported_with_lines() {
    let err = compile("int main(void) {\n  int x = 1\n  return x;\n}", OptLevel::O0).unwrap_err();
    assert!(!err.is_empty());
    assert!(err[0].line >= 2);
    let err = compile("int main(void) { return undeclared_thing; }", OptLevel::O2).unwrap_err();
    assert!(err[0].message.contains("undeclared"));
}
