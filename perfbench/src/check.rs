//! Reply verification: every reply is compared with what the generator
//! defined, and every mismatch counts as a failed call.

use std::collections::HashMap;

use virt_core::driver::{DomainRecord, DomainState, DomainStatsRecord};
use virt_core::typedparam::ParamValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::Uuid;

/// What one population domain must look like in every reply.
#[derive(Debug, Clone)]
pub struct ExpectedDomain {
    pub uuid: Uuid,
    pub state: DomainState,
    /// The defined config with its daemon-assigned UUID filled in:
    /// exactly what an `xml_desc` reply must parse back to.
    pub config: DomainConfig,
}

/// The expected state of the whole population.
#[derive(Debug, Clone)]
pub struct Expect {
    pub hostname: String,
    pub domains: Vec<ExpectedDomain>,
    by_name: HashMap<String, usize>,
}

impl Expect {
    pub fn new(hostname: String, domains: Vec<ExpectedDomain>) -> Self {
        let by_name = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.config.name.clone(), i))
            .collect();
        Expect {
            hostname,
            domains,
            by_name,
        }
    }

    pub fn name(&self, i: usize) -> &str {
        &self.domains[i].config.name
    }

    /// Checks that `names` is exactly the population, in any order.
    pub fn check_names<'a>(
        &self,
        what: &str,
        names: impl Iterator<Item = &'a str>,
    ) -> Result<(), String> {
        let mut seen = vec![false; self.domains.len()];
        let mut count = 0;
        for name in names {
            count += 1;
            match self.by_name.get(name) {
                Some(&i) if !seen[i] => seen[i] = true,
                Some(_) => return Err(format!("{what}: '{name}' listed twice")),
                None => return Err(format!("{what}: unexpected domain '{name}'")),
            }
        }
        if count != self.domains.len() {
            return Err(format!(
                "{what}: {count} domains, expected {}",
                self.domains.len()
            ));
        }
        Ok(())
    }
}

/// `Ok` when a reply field equals its expected value.
pub fn mismatch<T: std::fmt::Debug + PartialEq>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// A lookup/info/state reply against the expected domain.
pub fn check_record(
    record: &DomainRecord,
    want: &ExpectedDomain,
    autostart: bool,
) -> Result<(), String> {
    mismatch("name", record.name.as_str(), want.config.name.as_str())?;
    mismatch("uuid", record.uuid, want.uuid)?;
    mismatch("state", record.state, want.state)?;
    mismatch("autostart", record.autostart, autostart)?;
    mismatch("memory_mib", record.memory_mib, want.config.memory_mib)?;
    mismatch("vcpus", record.vcpus, want.config.vcpus)?;
    mismatch("persistent", record.persistent, true)
}

/// An `xml_desc` reply. The first reply for a domain must parse back to
/// the defined config; later replies must equal that first one byte for
/// byte, so every reply is checked without re-parsing each time.
pub fn check_xml(
    xml: &str,
    want: &ExpectedDomain,
    reference: &mut Option<String>,
) -> Result<(), String> {
    if let Some(seen) = reference {
        return if seen == xml {
            Ok(())
        } else {
            Err(format!(
                "xml_desc of '{}' changed between calls",
                want.config.name
            ))
        };
    }
    let parsed =
        DomainConfig::from_xml_str(xml).map_err(|e| format!("xml_desc does not parse: {e}"))?;
    if parsed != want.config {
        return Err(format!(
            "xml_desc of '{}' parses to {parsed:?}, expected {:?}",
            want.config.name, want.config
        ));
    }
    *reference = Some(xml.to_string());
    Ok(())
}

/// A `get_all_domain_stats` reply: one record per population domain,
/// each with the expected state, memory and vCPUs.
pub fn check_stats(records: &[DomainStatsRecord], expect: &Expect) -> Result<(), String> {
    expect.check_names("all-domain stats", records.iter().map(|r| r.name.as_str()))?;
    for record in records {
        let want = &expect.domains[expect.by_name[&record.name]];
        let param = |field: &str| {
            record
                .params
                .iter()
                .find(|p| p.field == field)
                .map(|p| p.value.clone())
        };
        mismatch(
            "state.state",
            param("state.state"),
            Some(ParamValue::UInt(want.state.as_u32())),
        )?;
        mismatch(
            "balloon.current",
            param("balloon.current"),
            Some(ParamValue::ULLong(want.config.memory_mib)),
        )?;
        mismatch(
            "vcpu.current",
            param("vcpu.current"),
            Some(ParamValue::UInt(want.config.vcpus)),
        )?;
    }
    Ok(())
}
