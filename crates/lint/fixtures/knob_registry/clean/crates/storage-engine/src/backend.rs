//! Clean fixture central knob module: both knobs parsed here from the one
//! environment read in `Knobs::from_env`, and both covered by the fixture CI
//! matrix and ROADMAP table.

pub struct Knobs {
    pub batch: bool,
    pub trace: bool,
}

impl Knobs {
    pub fn from_env() -> Self {
        Self::from_vars(std::env::vars())
    }

    pub fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Self {
        let mut knobs = Knobs {
            batch: false,
            trace: false,
        };
        for (name, value) in vars {
            match name.as_str() {
                "NOFTL_BATCH" => knobs.batch = value == "on",
                "NOFTL_TRACE" => knobs.trace = value == "on",
                _ => {}
            }
        }
        knobs
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_parse_literal_pairs() {
        let knobs = super::Knobs::from_vars([("NOFTL_BATCH".into(), "on".into())]);
        assert!(knobs.batch);
    }
}
