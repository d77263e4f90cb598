"""``kbqa answer`` CLI contract: deterministic non-crash output for unknown
entities / empty answers (exit 0), nonzero exit only on real failures."""

import pytest

from repro.cli import main


class TestAnswerErrorHandling:
    def test_unknown_entity_is_not_a_failure(self, capsys):
        code = main(
            ["answer", "--scale", "small",
             "who is the spouse of zorblax the unknowable?"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A: (no answer)" in out
        assert "answered 0/1" in out

    def test_mixed_batch_reports_deterministically(self, capsys, suite):
        city = next(e for e in suite.world.of_type("city"))
        code = main(
            ["answer", "--scale", "small",
             f"what is the population of {city.name}?",
             "gibberish question about nothing"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Q: ") == 2
        assert "answered 1/2" in out

    def test_missing_expansion_file_is_a_real_failure(self, capsys, tmp_path):
        code = main(
            ["answer", "--scale", "small",
             "--expansion", str(tmp_path / "missing.kbqa"), "any question"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "kbqa answer: error:" in err

    def test_corrupt_expansion_file_is_a_real_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.kbqa"
        bad.write_text("this is not an expansion artifact\n")
        code = main(
            ["answer", "--scale", "small", "--expansion", str(bad), "any question"]
        )
        assert code == 1
        assert "kbqa answer: error:" in capsys.readouterr().err

    def test_missing_expansion_fails_cleanly_on_every_training_command(
        self, capsys, tmp_path
    ):
        """--expansion is advertised on all training commands; each must
        fail deterministically, not with a traceback."""
        missing = str(tmp_path / "missing.kbqa")
        for command in ("demo", "decompose"):
            argv = [command, "--scale", "small", "--expansion", missing, "any question"]
            assert main(argv) == 1, command
            assert f"kbqa {command}: error:" in capsys.readouterr().err

    def test_answer_with_loaded_expansion(self, capsys, tmp_path, suite):
        path = tmp_path / "expansion.kbqa"
        assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
        capsys.readouterr()
        city = next(e for e in suite.world.of_type("city"))
        code = main(
            ["answer", "--scale", "small", "--expansion", str(path),
             f"what is the population of {city.name}?"]
        )
        assert code == 0
        assert "answered 1/1" in capsys.readouterr().out

    @pytest.mark.parametrize("repeat", ["0", "-3"])
    def test_repeat_below_one_is_a_usage_error(self, capsys, repeat):
        """``max(1, repeat)`` answered once for 0 or -3; argparse now refuses."""
        with pytest.raises(SystemExit) as exit_info:
            main(["answer", "--scale", "small", f"--repeat={repeat}", "any question"])
        assert exit_info.value.code == 2  # usage error, nothing trained
        captured = capsys.readouterr()
        assert "must be >= 1" in captured.err
        assert "Q:" not in captured.out

    @pytest.mark.parametrize("max_length", ["0", "-1"])
    def test_max_length_below_one_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, max_length
    ):
        """``expand_predicates`` refused it with exit 1 only after the whole
        suite was built; argparse now refuses it first."""

        def no_suite(*_args, **_kwargs):
            raise AssertionError("built a suite despite a refused --max-length")

        monkeypatch.setattr("repro.cli.build_suite", no_suite)
        path = tmp_path / "expansion.kbqa"
        with pytest.raises(SystemExit) as exit_info:
            main(["expand", "--scale", "small", "--save", str(path),
                  f"--max-length={max_length}"])
        assert exit_info.value.code == 2  # usage error
        assert "must be >= 1" in capsys.readouterr().err
        assert not path.exists()
