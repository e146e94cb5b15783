//! A minimal ASCII sparkline, so a curve (such as `analyze`'s miss-ratio
//! curve) is visible directly in a terminal without any plotting
//! dependency.

/// Renders a one-line sparkline of the values using eighth-block glyphs.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::EPSILON);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
    }

    #[test]
    fn sparkline_constant_input() {
        let s = sparkline(&[2.0, 2.0]);
        assert_eq!(s.chars().count(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sparkline(&[]), "");
    }
}
