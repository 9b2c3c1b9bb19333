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
}
