//! The Memory Settings window model (paper §II-C, Fig. 8).
//!
//! Users define static global arrays of basic data types, choose their
//! alignment, and fill them with explicit comma-separated values, a repeated
//! constant, or random data.  The arrays are referenced from C code via
//! `extern` and from assembly via their label.  Memory dumps can be imported
//! and exported in binary or CSV form.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Scalar element type of a user-defined array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalarType {
    /// 8-bit byte / char.
    Byte,
    /// 16-bit half word.
    Half,
    /// 32-bit word.
    Word,
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE double.
    Double,
}

impl ScalarType {
    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            ScalarType::Byte => 1,
            ScalarType::Half => 2,
            ScalarType::Word | ScalarType::Float => 4,
            ScalarType::Double => 8,
        }
    }
}

/// How an array is populated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrayFill {
    /// Explicit values (floats are accepted for float/double arrays).
    Values(Vec<f64>),
    /// `count` copies of `value`.
    Repeat {
        /// The repeated constant.
        value: f64,
        /// How many elements.
        count: usize,
    },
    /// `count` random elements in `[lo, hi)`, deterministic per `seed`.
    Random {
        /// How many elements.
        count: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// RNG seed so runs replay identically.
        seed: u64,
    },
}

/// One user-defined static array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryArray {
    /// Label used from code (`extern int arr[]` / `la a0, arr`).
    pub name: String,
    /// Element type.
    pub element: ScalarType,
    /// Alignment in bytes (0 or 1 = natural element alignment).
    pub alignment: usize,
    /// Fill specification.
    pub fill: ArrayFill,
}

impl MemoryArray {
    /// Number of elements the fill produces.
    pub fn element_count(&self) -> usize {
        match &self.fill {
            ArrayFill::Values(v) => v.len(),
            ArrayFill::Repeat { count, .. } => *count,
            ArrayFill::Random { count, .. } => *count,
        }
    }

    /// Size in bytes.
    pub fn byte_size(&self) -> usize {
        self.element_count() * self.element.size()
    }

    /// Effective alignment in bytes.
    pub fn effective_alignment(&self) -> usize {
        self.alignment.max(self.element.size()).max(1)
    }

    /// Materialize the element values.
    pub fn values(&self) -> Vec<f64> {
        match &self.fill {
            ArrayFill::Values(v) => v.clone(),
            ArrayFill::Repeat { value, count } => vec![*value; *count],
            ArrayFill::Random { count, lo, hi, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..*count).map(|_| rng.random_range(*lo..*hi)).collect()
            }
        }
    }

    /// Encode the element values as little-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        for v in self.values() {
            match self.element {
                ScalarType::Byte => out.push(v as i64 as u8),
                ScalarType::Half => out.extend_from_slice(&(v as i64 as u16).to_le_bytes()),
                ScalarType::Word => out.extend_from_slice(&(v as i64 as u32).to_le_bytes()),
                ScalarType::Float => out.extend_from_slice(&(v as f32).to_le_bytes()),
                ScalarType::Double => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        out
    }
}

/// A placed array: label, start address and byte size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedArray {
    /// Array label.
    pub name: String,
    /// Start address in main memory.
    pub address: u64,
    /// Size in bytes.
    pub size: usize,
}

/// The whole Memory Settings window: a list of arrays.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemorySettings {
    /// User-defined arrays in definition order.
    pub arrays: Vec<MemoryArray>,
}

impl MemorySettings {
    /// Empty settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an array definition.
    pub fn add(&mut self, array: MemoryArray) -> &mut Self {
        self.arrays.push(array);
        self
    }

    /// Allocate every array starting at `base`, respecting alignment, and
    /// write the fill data into `memory`.  Returns the placement table
    /// (label → address) used by the assembler's symbol table.
    pub fn allocate(
        &self,
        memory: &mut crate::MainMemory,
        base: u64,
    ) -> Result<Vec<PlacedArray>, String> {
        let mut cursor = base;
        let mut placed = Vec::with_capacity(self.arrays.len());
        for array in &self.arrays {
            let align = array.effective_alignment() as u64;
            cursor = cursor.div_ceil(align) * align;
            let bytes = array.to_bytes();
            memory
                .write_bytes(cursor, &bytes)
                .map_err(|e| format!("allocating `{}`: {e}", array.name))?;
            placed.push(PlacedArray {
                name: array.name.clone(),
                address: cursor,
                size: bytes.len(),
            });
            cursor += bytes.len() as u64;
        }
        Ok(placed)
    }

    /// Export the arrays as CSV (`name,type,index,value` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,type,index,value\n");
        for a in &self.arrays {
            let ty = match a.element {
                ScalarType::Byte => "byte",
                ScalarType::Half => "half",
                ScalarType::Word => "word",
                ScalarType::Float => "float",
                ScalarType::Double => "double",
            };
            for (i, v) in a.values().iter().enumerate() {
                out.push_str(&format!("{},{},{},{}\n", a.name, ty, i, v));
            }
        }
        out
    }

    /// Import arrays from CSV produced by [`MemorySettings::to_csv`].
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut settings = MemorySettings::new();
        let mut current: Option<(String, ScalarType, Vec<f64>)> = None;
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || lineno == 0 && line.starts_with("name,") {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 fields, got {}",
                    lineno + 1,
                    fields.len()
                ));
            }
            let name = fields[0].to_string();
            let ty = match fields[1] {
                "byte" => ScalarType::Byte,
                "half" => ScalarType::Half,
                "word" => ScalarType::Word,
                "float" => ScalarType::Float,
                "double" => ScalarType::Double,
                other => return Err(format!("line {}: unknown type `{other}`", lineno + 1)),
            };
            let value: f64 = fields[3]
                .parse()
                .map_err(|_| format!("line {}: bad value `{}`", lineno + 1, fields[3]))?;
            match &mut current {
                Some((n, t, vals)) if *n == name && *t == ty => vals.push(value),
                _ => {
                    if let Some((n, t, vals)) = current.take() {
                        settings.add(MemoryArray {
                            name: n,
                            element: t,
                            alignment: 0,
                            fill: ArrayFill::Values(vals),
                        });
                    }
                    current = Some((name, ty, vec![value]));
                }
            }
        }
        if let Some((n, t, vals)) = current.take() {
            settings.add(MemoryArray {
                name: n,
                element: t,
                alignment: 0,
                fill: ArrayFill::Values(vals),
            });
        }
        Ok(settings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MainMemory;

    fn word_array(name: &str, values: &[f64]) -> MemoryArray {
        MemoryArray {
            name: name.to_string(),
            element: ScalarType::Word,
            alignment: 0,
            fill: ArrayFill::Values(values.to_vec()),
        }
    }

    #[test]
    fn sizes_and_alignment() {
        let a = word_array("a", &[1.0, 2.0, 3.0]);
        assert_eq!(a.element_count(), 3);
        assert_eq!(a.byte_size(), 12);
        assert_eq!(a.effective_alignment(), 4);
        let b = MemoryArray {
            name: "b".into(),
            element: ScalarType::Byte,
            alignment: 16,
            fill: ArrayFill::Repeat { value: 0.0, count: 64 },
        };
        assert_eq!(b.byte_size(), 64);
        assert_eq!(b.effective_alignment(), 16);
    }

    #[test]
    fn fills_materialize() {
        let r = MemoryArray {
            name: "r".into(),
            element: ScalarType::Word,
            alignment: 0,
            fill: ArrayFill::Repeat { value: 7.0, count: 5 },
        };
        assert_eq!(r.values(), vec![7.0; 5]);

        let rnd = MemoryArray {
            name: "rnd".into(),
            element: ScalarType::Float,
            alignment: 0,
            fill: ArrayFill::Random { count: 10, lo: 0.0, hi: 1.0, seed: 42 },
        };
        let v1 = rnd.values();
        let v2 = rnd.values();
        assert_eq!(v1, v2, "random fill must be deterministic per seed");
        assert!(v1.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn byte_encoding_is_little_endian_and_typed() {
        let w = word_array("w", &[1.0, 256.0]);
        assert_eq!(w.to_bytes(), vec![1, 0, 0, 0, 0, 1, 0, 0]);
        let f = MemoryArray {
            name: "f".into(),
            element: ScalarType::Float,
            alignment: 0,
            fill: ArrayFill::Values(vec![2.5]),
        };
        assert_eq!(f.to_bytes(), 2.5f32.to_le_bytes().to_vec());
        let d = MemoryArray {
            name: "d".into(),
            element: ScalarType::Double,
            alignment: 0,
            fill: ArrayFill::Values(vec![2.5]),
        };
        assert_eq!(d.to_bytes(), 2.5f64.to_le_bytes().to_vec());
    }

    #[test]
    fn allocation_respects_alignment_and_order() {
        let mut mem = MainMemory::new(256);
        let mut s = MemorySettings::new();
        s.add(MemoryArray {
            name: "bytes".into(),
            element: ScalarType::Byte,
            alignment: 0,
            fill: ArrayFill::Values(vec![1.0, 2.0, 3.0]),
        });
        s.add(MemoryArray {
            name: "words".into(),
            element: ScalarType::Word,
            alignment: 16,
            fill: ArrayFill::Values(vec![10.0, 20.0]),
        });
        let placed = s.allocate(&mut mem, 4).unwrap();
        assert_eq!(placed[0].address, 4);
        assert_eq!(placed[0].size, 3);
        assert_eq!(placed[1].address, 16, "second array aligned up to 16");
        assert_eq!(mem.read_u32(16).unwrap(), 10);
        assert_eq!(mem.read_u32(20).unwrap(), 20);
        assert_eq!(mem.read_bytes(4, 3).unwrap(), [1, 2, 3]);
    }

    #[test]
    fn allocation_overflow_reports_array_name() {
        let mut mem = MainMemory::new(16);
        let mut s = MemorySettings::new();
        s.add(MemoryArray {
            name: "big".into(),
            element: ScalarType::Word,
            alignment: 0,
            fill: ArrayFill::Repeat { value: 0.0, count: 100 },
        });
        let err = s.allocate(&mut mem, 0).unwrap_err();
        assert!(err.contains("big"));
    }

    #[test]
    fn csv_round_trip() {
        let mut s = MemorySettings::new();
        s.add(word_array("a", &[1.0, 2.0, 3.0]));
        s.add(MemoryArray {
            name: "f".into(),
            element: ScalarType::Float,
            alignment: 0,
            fill: ArrayFill::Values(vec![0.5, 1.5]),
        });
        let csv = s.to_csv();
        let back = MemorySettings::from_csv(&csv).unwrap();
        assert_eq!(back.arrays.len(), 2);
        assert_eq!(back.arrays[0].values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(back.arrays[1].element, ScalarType::Float);
        assert_eq!(back.arrays[1].values(), vec![0.5, 1.5]);
    }

    #[test]
    fn csv_errors() {
        assert!(MemorySettings::from_csv("a,word,0\n").is_err());
        assert!(MemorySettings::from_csv("a,wat,0,1\n").is_err());
        assert!(MemorySettings::from_csv("a,word,0,xyz\n").is_err());
        assert!(MemorySettings::from_csv("").unwrap().arrays.is_empty());
    }
}
