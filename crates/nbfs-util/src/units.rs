//! Human-readable units for sizes and rates, used by the figure printers.

/// Formats a byte count with binary units (KiB/MiB/GiB), matching the way
/// the paper quotes bitmap sizes ("512 MB and 8 MB respectively").
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Formats a bandwidth in bytes/second with decimal units (MB/s, GB/s),
/// matching network-benchmark convention (Fig. 4 of the paper).
pub fn format_bandwidth(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e9 {
        format!("{:.2} GB/s", bytes_per_sec / 1e9)
    } else if bytes_per_sec >= 1e6 {
        format!("{:.2} MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.2} kB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.2} B/s")
    }
}

/// Parses a size written like `64MiB`, `512 MB`, `8kB`, `1024`.
/// Decimal (kB/MB/GB) and binary (KiB/MiB/GiB) suffixes are supported.
// Truncation to whole bytes is the intended rounding for fractional sizes.
#[allow(clippy::cast_possible_truncation)]
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let Some(split) = s.find(|c: char| !c.is_ascii_digit() && c != '.') else {
        return s.parse().ok();
    };
    let (num, suffix) = s.split_at(split);
    let num: f64 = num.parse().ok()?;
    let mult: f64 = match suffix.trim() {
        "B" => 1.0,
        "kB" | "KB" => 1e3,
        "MB" => 1e6,
        "GB" => 1e9,
        "KiB" => 1024.0,
        "MiB" => 1024.0 * 1024.0,
        "GiB" => 1024.0 * 1024.0 * 1024.0,
        _ => return None,
    };
    Some((num * mult) as usize)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(8 * 1024 * 1024), "8.00 MiB");
        assert_eq!(format_bytes(512 * 1024 * 1024), "512.00 MiB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(format_bandwidth(6.4e9), "6.40 GB/s");
        assert_eq!(format_bandwidth(1.5e6), "1.50 MB/s");
        assert_eq!(format_bandwidth(2.0e3), "2.00 kB/s");
        assert_eq!(format_bandwidth(10.0), "10.00 B/s");
    }

    #[test]
    fn parse_roundtrips() {
        assert_eq!(parse_bytes("64MiB"), Some(64 * 1024 * 1024));
        assert_eq!(parse_bytes("512 MB"), Some(512_000_000));
        assert_eq!(parse_bytes("8kB"), Some(8000));
        assert_eq!(parse_bytes("123B"), Some(123));
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("junk"), None);
        assert_eq!(parse_bytes("12XB"), None);
    }
}
