from multialg.cli import main
raise SystemExit(main())
