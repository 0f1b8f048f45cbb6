//! Command-line arguments.

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see `workloads::NAMES`).
    pub workload: String,
    /// Seed for every generated input: data, arrivals, and request choice.
    pub seed: u64,
    /// Seconds of measured load, split over the run's phases.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Perturb one reference answer, to show that the output check fails.
    pub corrupt_reference: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1
/// [--corrupt-reference]`.
///
/// # Errors
///
/// Returns a message naming the bad or missing argument.
pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt_reference = false;
    while let Some(flag) = argv.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        corrupt_reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_documented_form() {
        let a = args("--workload router_ycsb_a --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("router_ycsb_a", 3, 10.0, true)
        );
        assert!(!a.corrupt_reference);
    }

    #[test]
    fn rejects_missing_and_bad_values() {
        assert!(args("--workload x --seed 1 --seconds 10").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
    }
}
