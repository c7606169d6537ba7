//! JSON configuration interface (Section IV-A): "Users have to provide
//! JSON files for: 1) model architecture ..., 2) distributed system
//! specifications ..., and 3) task and parallelization strategy".
//!
//! Every spec type in the workspace derives serde, so configs round-trip
//! losslessly; this module adds the file-level glue. Experiment specs
//! written before the `Workload` redesign (a `"task"` field holding a
//! legacy `Task` variant) still parse: the legacy variant names are mapped
//! onto workloads here, even though the in-code `Task` shim itself has
//! been removed.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{Plan, Workload};

/// Workload + parallelization strategy, the third of the paper's three
/// JSON inputs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentSpec {
    /// The workload to simulate (pre-training / fine-tuning / serving).
    pub workload: Workload,
    /// The workload-to-system mapping.
    pub plan: Plan,
}

/// Maps a pre-`Workload` `"task"` value (`"Pretraining"`, `"Inference"`,
/// or `{"Finetuning": {"trainable": [...]}}`) onto a [`Workload`]. The
/// in-code `Task` enum is gone; this keeps the on-disk schema loading.
fn workload_from_legacy_task(v: &serde::Value) -> Result<Workload, serde::Error> {
    if let serde::Value::Str(s) = v {
        return match s.as_str() {
            "Pretraining" => Ok(Workload::pretrain()),
            "Inference" => Ok(Workload::inference()),
            other => Err(serde::Error::msg(format!("unknown legacy task {other}"))),
        };
    }
    let map = v
        .as_map()
        .ok_or_else(|| serde::Error::msg("expected string or map for legacy task"))?;
    let payload = map
        .iter()
        .find(|(key, _)| key == "Finetuning")
        .map(|(_, val)| val)
        .ok_or_else(|| serde::Error::msg("unknown legacy task variant"))?;
    let fields = payload
        .as_map()
        .ok_or_else(|| serde::Error::msg("expected map for Finetuning"))?;
    let trainable = serde::field(fields, "trainable")?;
    Ok(Workload::Finetune {
        trainable: Deserialize::from_value(trainable)?,
    })
}

impl Deserialize for ExperimentSpec {
    /// Accepts the current schema (`"workload"`) and the pre-`Workload`
    /// schema (`"task"` with a legacy `Task` variant).
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::msg("expected map for ExperimentSpec"))?;
        let field = |k: &str| map.iter().find(|(key, _)| key == k).map(|(_, val)| val);
        let workload = match (field("workload"), field("task")) {
            (Some(w), _) => Workload::from_value(w)?,
            (None, Some(t)) => workload_from_legacy_task(t)?,
            (None, None) => return Err(serde::Error::msg("missing field workload")),
        };
        let plan = field("plan")
            .ok_or_else(|| serde::Error::msg("missing field plan"))
            .and_then(Plan::from_value)?;
        Ok(Self { workload, plan })
    }
}

/// A fully-specified simulation loaded from configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Model architecture.
    pub model: ModelArch,
    /// Distributed system.
    pub system: ClusterSpec,
    /// Workload + plan.
    pub experiment: ExperimentSpec,
}

/// Errors loading or saving configuration files.
#[derive(Debug)]
pub enum ConfigError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "config I/O error: {e}"),
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io(e) => Some(e),
            ConfigError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ConfigError {
    fn from(e: std::io::Error) -> Self {
        ConfigError::Io(e)
    }
}

impl From<serde_json::Error> for ConfigError {
    fn from(e: serde_json::Error) -> Self {
        ConfigError::Parse(e)
    }
}

impl SimulationConfig {
    /// Loads the three JSON files the paper describes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for missing files or schema mismatches.
    pub fn from_json_files(
        model: impl AsRef<Path>,
        system: impl AsRef<Path>,
        experiment: impl AsRef<Path>,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            model: serde_json::from_str(&fs::read_to_string(model)?)?,
            system: serde_json::from_str(&fs::read_to_string(system)?)?,
            experiment: serde_json::from_str(&fs::read_to_string(experiment)?)?,
        })
    }

    /// Parses a single combined JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] if serialization fails (it cannot for
    /// well-formed specs).
    pub fn to_json(&self) -> Result<String, ConfigError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Writes the three JSON files to a directory
    /// (`model.json`, `system.json`, `experiment.json`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on I/O failure.
    pub fn write_split(&self, dir: impl AsRef<Path>) -> Result<(), ConfigError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join("model.json"),
            serde_json::to_string_pretty(&self.model)?,
        )?;
        fs::write(
            dir.join("system.json"),
            serde_json::to_string_pretty(&self.system)?,
        )?;
        fs::write(
            dir.join("experiment.json"),
            serde_json::to_string_pretty(&self.experiment)?,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn sample() -> SimulationConfig {
        let model = ModelId::DlrmB.build();
        let plan = Plan::fsdp_baseline(&model);
        SimulationConfig {
            model,
            system: catalog::zionex_dlrm_system(),
            experiment: ExperimentSpec {
                workload: Workload::pretrain(),
                plan,
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let cfg = sample();
        let js = cfg.to_json().unwrap();
        let back = SimulationConfig::from_json(&js).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn split_files_round_trip() {
        let cfg = sample();
        let dir = std::env::temp_dir().join("madmax_config_test");
        cfg.write_split(&dir).unwrap();
        let back = SimulationConfig::from_json_files(
            dir.join("model.json"),
            dir.join("system.json"),
            dir.join("experiment.json"),
        )
        .unwrap();
        assert_eq!(cfg, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_optional_pipeline_field_parses_as_none() {
        // Hand-authored configs predating the pipeline dimension omit the
        // key entirely; `Option` fields must default to `None` (real-serde
        // behavior, preserved by the vendored stub).
        let cfg = sample();
        let js = cfg.to_json().unwrap();
        assert!(js.contains("\"pipeline\": null"), "{js}");
        let stripped = js.replace("\"pipeline\": null,", "");
        assert!(!stripped.contains("pipeline"));
        let back = SimulationConfig::from_json(&stripped).unwrap();
        assert_eq!(back.experiment.plan.pipeline, None);
        assert_eq!(back, cfg);
    }

    #[test]
    fn legacy_task_field_still_parses() {
        // Configs emitted before the Workload redesign carry
        // `"task": "Pretraining"` (or a Finetuning/Inference variant);
        // they must keep loading, mapped through the deprecated-Task
        // shim.
        let cfg = sample();
        let js = cfg.to_json().unwrap();
        let legacy = js.replace("\"workload\": \"Pretrain\"", "\"task\": \"Pretraining\"");
        assert_ne!(js, legacy, "substitution must have applied");
        let back = SimulationConfig::from_json(&legacy).unwrap();
        assert_eq!(back, cfg);
        // Legacy inference maps onto the prefill-only serve workload.
        let legacy_infer = js.replace("\"workload\": \"Pretrain\"", "\"task\": \"Inference\"");
        let back = SimulationConfig::from_json(&legacy_infer).unwrap();
        assert_eq!(back.experiment.workload, Workload::inference());
    }

    #[test]
    fn parse_error_is_reported() {
        let err = SimulationConfig::from_json("{not json").unwrap_err();
        assert!(matches!(err, ConfigError::Parse(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn loaded_config_is_runnable() {
        let cfg = sample();
        let js = cfg.to_json().unwrap();
        let cfg = SimulationConfig::from_json(&js).unwrap();
        let report = crate::perf::run_flat_single_use(
            &cfg.model,
            &cfg.system,
            &cfg.experiment.plan,
            cfg.experiment.workload.clone(),
            &crate::HierarchicalNccl,
            crate::UtilizationModel::Constant,
            true,
            &mut crate::EngineScratch::new(),
        )
        .unwrap();
        assert!(report.iteration_time.as_ms() > 0.0);
    }
}
