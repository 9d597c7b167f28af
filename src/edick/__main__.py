from edick.cli import main

raise SystemExit(main())
