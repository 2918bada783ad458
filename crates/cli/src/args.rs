//! The argument layer: `--name value` options and flags taken out of the
//! command line in any order, and the options several verbs share.

use std::str::FromStr;

use aesz_repro::archive::ArchiveOptions;
use aesz_repro::datagen::Application;
use aesz_repro::model_store::TrainSettings;
use aesz_repro::{CodecId, Dims, ErrorBound};

use crate::USAGE;

/// The words after the subcommand; each verb takes what it knows and
/// [`finish`](Args::finish) rejects the rest.
pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: Vec<String>) -> Args {
        Args(args)
    }

    /// Take the leading word (a subcommand or a `remote` verb).
    pub fn next(&mut self) -> Option<String> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    pub fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(pos) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if pos + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = self.0.remove(pos + 1);
        self.0.remove(pos);
        Ok(Some(value))
    }

    pub fn need(&mut self, name: &str) -> Result<String, String> {
        self.opt(name)?
            .ok_or(format!("{name} is required\n{USAGE}"))
    }

    pub fn flag(&mut self, name: &str) -> bool {
        let pos = self.0.iter().position(|a| a == name);
        pos.map(|pos| self.0.remove(pos)).is_some()
    }

    /// A numeric option, reported by its name without dashes when it does
    /// not parse.
    pub fn num<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name)? {
            Some(s) => parse(&s, name.trim_start_matches('-')).map(Some),
            None => Ok(None),
        }
    }

    pub fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognised arguments: {}", self.0.join(" ")))
        }
    }

    /// `--dims`, slow-to-fast extents such as `256x256`.
    pub fn dims(&mut self) -> Result<Dims, String> {
        let s = self.need("--dims")?;
        let parts: Result<Vec<usize>, _> = s.split('x').map(|p| p.parse::<usize>()).collect();
        let parts = parts.map_err(|_| format!("bad dims `{s}` (expected e.g. 256x256)"))?;
        if parts.contains(&0) {
            return Err(format!("bad dims `{s}`: zero extent"));
        }
        match *parts.as_slice() {
            [n] => Ok(Dims::d1(n)),
            [ny, nx] => Ok(Dims::d2(ny, nx)),
            [nz, ny, nx] => Ok(Dims::d3(nz, ny, nx)),
            _ => Err(format!("bad dims `{s}`: rank must be 1..=3")),
        }
    }

    pub fn codec(&mut self) -> Result<CodecId, String> {
        parse_codec(&self.need("--codec")?)
    }

    /// `--codec`, or `default` when absent.
    pub fn codec_or(&mut self, default: CodecId) -> Result<CodecId, String> {
        self.opt("--codec")?
            .map_or(Ok(default), |s| parse_codec(&s))
    }

    /// Exactly one of `--rel` / `--abs`.
    pub fn bound(&mut self) -> Result<ErrorBound, String> {
        match (self.opt("--rel")?, self.opt("--abs")?) {
            (Some(e), None) => Ok(ErrorBound::rel(parse(&e, "relative bound")?)),
            (None, Some(e)) => Ok(ErrorBound::abs(parse(&e, "absolute bound")?)),
            _ => Err(format!("exactly one of --rel / --abs is required\n{USAGE}")),
        }
    }

    /// `--window`, the archive layer's default when absent.
    pub fn window(&mut self) -> Result<usize, String> {
        Ok(self
            .num("--window")?
            .unwrap_or(ArchiveOptions::default().window_chunks()))
    }

    /// Training knobs shared by `aesz train` and `compress --train`.
    pub fn train_settings(&mut self) -> Result<TrainSettings, String> {
        Ok(TrainSettings {
            epochs: self.num("--epochs")?,
            block: self.num("--block")?,
            latent: self.num("--latent")?,
            max_blocks: self.num("--max-blocks")?,
            seed: self.num("--train-seed")?.unwrap_or(2021),
            channels: match self.opt("--channels")? {
                Some(s) => Some(parse_channels(&s)?),
                None => None,
            },
        })
    }
}

pub fn parse<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("bad {what} `{s}`"))
}

fn parse_codec(s: &str) -> Result<CodecId, String> {
    match s.to_ascii_lowercase().as_str() {
        "aesz" | "ae-sz" => Ok(CodecId::AeSz),
        "sz2" | "sz2.1" => Ok(CodecId::Sz2),
        "zfp" => Ok(CodecId::Zfp),
        "szauto" => Ok(CodecId::SzAuto),
        "szinterp" => Ok(CodecId::SzInterp),
        "aea" | "ae-a" => Ok(CodecId::AeA),
        "aeb" | "ae-b" => Ok(CodecId::AeB),
        other => Err(format!("unknown codec `{other}`")),
    }
}

pub fn parse_app(s: &str) -> Result<Application, String> {
    match s.to_ascii_lowercase().as_str() {
        "cesm" | "cesm-cldhgh" => Ok(Application::CesmCldhgh),
        "cesm-freqsh" => Ok(Application::CesmFreqsh),
        "exafel" => Ok(Application::Exafel),
        "nyx" | "nyx-baryon" => Ok(Application::NyxBaryonDensity),
        "nyx-temp" => Ok(Application::NyxTemperature),
        "nyx-dm" => Ok(Application::NyxDarkMatterDensity),
        "hurricane-u" => Ok(Application::HurricaneU),
        "hurricane-qvapor" => Ok(Application::HurricaneQvapor),
        "rtm" => Ok(Application::Rtm),
        other => Err(format!("unknown application `{other}`")),
    }
}

fn parse_channels(s: &str) -> Result<Vec<usize>, String> {
    let parts: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse::<usize>()).collect();
    let parts = parts.map_err(|_| format!("bad channels `{s}` (expected e.g. 8,16)"))?;
    if parts.is_empty() || parts.contains(&0) {
        return Err(format!(
            "bad channels `{s}`: need at least one, all non-zero"
        ));
    }
    Ok(parts)
}
