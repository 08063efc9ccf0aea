//! Programs shared by the workspace integration tests.

use riscv_superscalar_sim::prelude::*;
use std::sync::OnceLock;

/// The benchmark's program shape: a recursive quicksort over 512 distinct
/// ints in an initialised global, compiled at -O2.  It runs for tens of
/// thousands of cycles, so step backs cross many checkpoint intervals.
pub fn quicksort() -> &'static str {
    static ASSEMBLY: OnceLock<String> = OnceLock::new();
    ASSEMBLY.get_or_init(|| {
        let values: Vec<String> =
            (0..512u32).map(|i| ((i * 7_919 + 13) % 10_000).to_string()).collect();
        let source = format!(
            "int data[512] = {{{}}};

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
    quicksort(data, 0, 511);
    return data[0] + data[511];
}}
",
            values.join(", ")
        );
        compile(&source, OptLevel::O2).expect("quicksort compiles").assembly
    })
}
