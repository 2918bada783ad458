//! The raw-field verbs: `gen` and `compare`.

use aesz_repro::archive::ChunkSource;

use crate::args::{parse_app, Args};
use crate::io::{self, mb, ErrorStats, RawFile};

pub fn gen(mut args: Args) -> Result<(), String> {
    let app = parse_app(&args.need("--app")?)?;
    let dims = args.dims()?;
    let output = args.need("--output")?;
    let seed = args.num("--seed")?.unwrap_or(0);
    args.finish()?;
    let field = app.generate(dims, seed);
    io::write_bytes(&output, &field.to_le_bytes())?;
    let (lo, hi) = field.min_max();
    status!(
        output == "-",
        "wrote {} ({} elements, {:.1} MB) range [{lo}, {hi}]",
        output,
        field.len(),
        mb(field.len() * 4)
    );
    Ok(())
}

pub fn compare(mut args: Args) -> Result<(), String> {
    let a = args.need("--a")?;
    let b = args.need("--b")?;
    let dims = args.dims()?;
    let max_abs: Option<f64> = args.num("--max-abs")?;
    args.finish()?;

    let mut fa = RawFile::open(&a, dims)?;
    let mut fb = RawFile::open(&b, dims)?;
    let (lo, hi) = fa.min_max().map_err(|e| e.to_string())?;
    let mut stats = ErrorStats::default();
    for (x, y) in fa.slabs().zip(fb.slabs()) {
        let (x, y) = (x.map_err(|e| e.to_string())?, y.map_err(|e| e.to_string())?);
        stats.add(x.as_slice(), y.as_slice());
    }
    let worst = stats.max_abs;
    emit!(
        "{a} vs {b}: PSNR {:.2} dB, max abs err {:.3e}",
        stats.psnr((hi - lo) as f64),
        worst
    );
    if let Some(cap) = max_abs {
        if worst > cap {
            return Err(format!(
                "max abs err {worst:.3e} exceeds --max-abs {cap:.3e}"
            ));
        }
        emit!("within --max-abs {cap:.3e} OK");
    }
    Ok(())
}
